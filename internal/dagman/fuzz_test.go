package dagman

import (
	"bytes"
	"strings"
	"testing"
)

// emittedDAG is the fdw.dag that `fdw -emit -waveforms 2000` writes
// (core.WriteArtifacts with matrix recycling on). core imports dagman,
// so this package's tests carry the text instead of generating it.
const emittedDAG = `# FDW workflow "fdw": 2000 waveforms, 121 stations
JOB matrices fdw_matrices.sub DONE
JOB phaseA fdw_phase_a.sub
RETRY phaseA 2
JOB phaseB fdw_phase_b.sub
RETRY phaseB 2
JOB phaseC fdw_phase_c.sub
RETRY phaseC 2
PARENT matrices CHILD phaseA phaseB
PARENT phaseA CHILD phaseC
PARENT phaseB CHILD phaseC
`

// FuzzParse: Parse never panics, rejects with a dagman: error, and
// any DAG it accepts writes, re-parses and re-writes to identical bytes.
func FuzzParse(f *testing.F) {
	f.Add([]byte(emittedDAG))
	f.Add([]byte(sampleDAG))
	for _, c := range parseErrorCases {
		f.Add([]byte(c.src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		d, err := Parse(bytes.NewReader(src))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "dagman: ") {
				t.Fatalf("error %q does not start with dagman:", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := d.Write(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written DAG does not parse: %v\n%q", err, first.Bytes())
		}
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the DAG:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
