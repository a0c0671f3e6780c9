package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"fdw/internal/obs"
)

// TestLedgerValidation: a bundle ledger that is not well-formed JSON of
// the right shape, or that breaks a structural invariant, is rejected.
func TestLedgerValidation(t *testing.T) {
	cases := map[string]string{
		"truncated":   `{"format":1,"dag":"x","nodes":[{"na`,
		"bad format":  `{"format":99,"dag":"x","nodes":[]}`,
		"no dag":      `{"format":1,"nodes":[]}`,
		"dup node":    `{"format":1,"dag":"x","nodes":[{"name":"a","done":true},{"name":"a","done":false}]}`,
		"empty name":  `{"format":1,"dag":"x","nodes":[{"name":"","done":true}]}`,
		"not json":    `PARENT a CHILD b`,
		"wrong shape": `[1,2,3]`,
	}
	for name, in := range cases {
		var l Ledger
		err := json.Unmarshal([]byte(in), &l)
		if err == nil {
			err = l.Validate()
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := `{"format":1,"dag":"x","nodes":[{"name":"a","done":true},{"name":"b","done":false}]}`
	var l Ledger
	if err := json.Unmarshal([]byte(ok), &l); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("well-formed ledger rejected: %v", err)
	}
	if l.DoneCount() != 1 {
		t.Fatalf("DoneCount = %d, want 1", l.DoneCount())
	}
}

// FuzzReadCampaignManifest: the bundle reader behind
// ReadCampaignManifestFile and LoadBundle, the only state the scheduler
// and the shard runner read back after a crash, never panics and names
// every rejection as an expt error; whatever it accepts, Write renders
// to bytes that read back and render again unchanged.
func FuzzReadCampaignManifest(f *testing.F) {
	raw := json.RawMessage(`{"waveforms":16,"makespan_h":10.48}`)
	done := map[string]CellRecord{"n16/s11": {
		ID: "n16/s11", Result: raw, Digest: cellDigest(raw), SimEnd: 37728,
		Metrics: &obs.Snapshot{Counters: []obs.CounterSnap{{Name: "fdw_jobs_total", Value: 9}}},
	}}
	ids := []string{"n16/s11", "n32/s11"}
	for _, m := range []*CampaignManifest{
		NewBundle("fig2", "0123456789abcdef", ShardSpec{Index: 2, Total: 3}, true, ids, done),
		NewBundle("fig2", "0123456789abcdef", ShardSpec{Index: 1, Total: 1}, false, ids, done),
	} {
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Results whose digest covers bytes other than json.Marshal's form
	// (spaced, HTML characters unescaped, missing): Write would
	// re-encode them past their digest, so the reader refuses them.
	for _, r := range []string{`{"waveforms": 16}`, `{"site":"<a&b>"}`, ``} {
		field := ""
		if r != "" {
			field = `"result":` + r + ","
		}
		f.Add([]byte(fmt.Sprintf(`{"format":1,"campaign":"fig2","shard":{"index":1,"total":1},"leased":true,`+
			`"fingerprint":"0123456789abcdef","ledger":{"format":1,"dag":"fig2-worker1of1","nodes":[{"name":"a","done":true}]},`+
			`"cells":[{"id":"a",%s"digest":%q,"sim_end":1}],"sim_max":1}`, field, cellDigest([]byte(r)))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readCampaignManifest(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "expt:") {
				t.Fatalf("error %q does not start with expt:", err)
			}
			return
		}
		write := func(m *CampaignManifest) []byte {
			var buf bytes.Buffer
			if err := m.Write(&buf); err != nil {
				t.Fatalf("accepted manifest does not write: %v", err)
			}
			return buf.Bytes()
		}
		once := write(m)
		back, err := readCampaignManifest(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("written manifest does not read back: %v\n%s", err, once)
		}
		if twice := write(back); !bytes.Equal(once, twice) {
			t.Fatalf("round trip changed bytes:\n%s\nthen\n%s", once, twice)
		}
	})
}
