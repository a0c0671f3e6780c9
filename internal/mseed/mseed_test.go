package mseed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"fdw/internal/sim"
)

func sample(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i) * 0.25
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	in := []Record{
		{Network: "CL", Station: "ANTC", Channel: "LXE", Start: 0, Dt: 1, Samples: sample(10)},
		{Network: "CL", Station: "ANTC", Channel: "LXN", Start: 0, Dt: 1, Samples: sample(10)},
		{Network: "CL", Station: "CONZ", Channel: "LXZ", Start: 2.5, Dt: 0.5, Samples: nil},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Network != b.Network || a.Station != b.Station || a.Channel != b.Channel {
			t.Fatalf("record %d identifiers differ: %+v vs %+v", i, a, b)
		}
		if a.Start != b.Start || a.Dt != b.Dt || len(a.Samples) != len(b.Samples) {
			t.Fatalf("record %d header differs", i)
		}
		for j := range a.Samples {
			if a.Samples[j] != b.Samples[j] {
				t.Fatalf("record %d sample %d differs", i, j)
			}
		}
	}
}

func TestEncodedSizeMatchesWrite(t *testing.T) {
	recs := []Record{
		{Network: "CL", Station: "QLLN", Channel: "LXZ", Dt: 1, Samples: sample(512)},
		{Network: "CL", Station: "PTRO", Channel: "LXE", Dt: 1, Samples: sample(3)},
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != EncodedSize(recs) {
		t.Fatalf("EncodedSize = %d, actual %d", EncodedSize(recs), buf.Len())
	}
}

func TestBadMagicRejected(t *testing.T) {
	_, err := Read(strings.NewReader("XXXX junk"))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedStreamRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Record{{Network: "CL", Station: "S", Channel: "LXE", Dt: 1, Samples: sample(100)}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{3, 8, 12, len(b) - 4} {
		if _, err := Read(bytes.NewReader(b[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestImplausibleSampleCountRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Record{{Network: "N", Station: "S", Channel: "C", Dt: 1, Samples: sample(1)}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// The nsamp field sits 16 bytes into the 20-byte fixed block, which
	// follows magic(4)+head(6)+3 length-prefixed identifiers (1+1,1+1,1+1).
	off := 4 + 6 + 2 + 2 + 2 + 16
	b[off], b[off+1], b[off+2], b[off+3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestHostileSampleCountNoUpfrontAllocation: a 33-byte stream whose one
// record claims maxSamples samples and holds none must fail on record 0
// without allocating the 2 GiB it claims.
func TestHostileSampleCountNoUpfrontAllocation(t *testing.T) {
	b := append([]byte{}, magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, 0, 0, 0)             // empty network, station, channel
	b = append(b, make([]byte, 16)...) // start, dt
	b = binary.LittleEndian.AppendUint32(b, maxSamples)
	if len(b) != 33 {
		t.Fatalf("stream is %d bytes, want 33", len(b))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "record 0") {
		t.Fatalf("err = %v, want ErrCorrupt naming record 0", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("rejecting a hostile sample count allocated %d bytes", got)
	}
}

func TestOverlongIdentifierRejected(t *testing.T) {
	var buf bytes.Buffer
	err := Write(&buf, []Record{{Network: strings.Repeat("x", 256), Station: "S", Channel: "C"}})
	if err == nil {
		t.Fatal("256-byte identifier accepted")
	}
}

func TestDuration(t *testing.T) {
	r := Record{Dt: 0.5, Samples: sample(11)}
	if r.Duration() != 5 {
		t.Fatalf("Duration = %v, want 5", r.Duration())
	}
	empty := Record{Dt: 1}
	if empty.Duration() != 0 {
		t.Fatal("empty record should have zero duration")
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d records from empty stream", len(out))
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	rng := sim.NewRNG(77)
	f := func(seed uint64, nRaw, lenRaw uint8) bool {
		r := rng.Split(seed)
		n := int(nRaw % 5)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{
				Network: "CL",
				Station: string(rune('A' + i)),
				Channel: "LXE",
				Start:   r.Normal(0, 10),
				Dt:      r.Uniform(0.01, 2),
				Samples: make([]float64, int(lenRaw%64)),
			}
			for j := range recs[i].Samples {
				recs[i].Samples[j] = r.Normal(0, 1)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			return false
		}
		if int64(buf.Len()) != EncodedSize(recs) {
			return false
		}
		out, err := Read(&buf)
		if err != nil || len(out) != n {
			return false
		}
		for i := range recs {
			if out[i].Station != recs[i].Station || len(out[i].Samples) != len(recs[i].Samples) {
				return false
			}
			for j := range recs[i].Samples {
				if out[i].Samples[j] != recs[i].Samples[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Duration returns the record's covered time span in seconds.
func (r *Record) Duration() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	return float64(len(r.Samples)-1) * r.Dt
}
