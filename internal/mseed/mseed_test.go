package mseed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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

// referenceWrite is the per-record encoder Write replaced: three small
// writes and a fresh sample buffer per record. TestWriteMatchesReference
// holds Write's bytes and errors to it.
func referenceWrite(w io.Writer, records []Record) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	head := make([]byte, 6)
	binary.LittleEndian.PutUint16(head[0:], 1)
	binary.LittleEndian.PutUint32(head[2:], uint32(len(records)))
	if _, err := w.Write(head); err != nil {
		return err
	}
	for i := range records {
		if err := referenceWriteRecord(w, &records[i]); err != nil {
			return fmt.Errorf("mseed: record %d: %w", i, err)
		}
	}
	return nil
}

func referenceWriteString(w io.Writer, s string) error {
	if len(s) > 255 {
		return fmt.Errorf("identifier %q too long", s)
	}
	if _, err := w.Write([]byte{byte(len(s))}); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func referenceWriteRecord(w io.Writer, r *Record) error {
	for _, s := range []string{r.Network, r.Station, r.Channel} {
		if err := referenceWriteString(w, s); err != nil {
			return err
		}
	}
	fixed := make([]byte, 20)
	binary.LittleEndian.PutUint64(fixed[0:], math.Float64bits(r.Start))
	binary.LittleEndian.PutUint64(fixed[8:], math.Float64bits(r.Dt))
	binary.LittleEndian.PutUint32(fixed[16:], uint32(len(r.Samples)))
	if _, err := w.Write(fixed); err != nil {
		return err
	}
	buf := make([]byte, 8*len(r.Samples))
	for i, v := range r.Samples {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// randomRecords draws n records with identifiers of 0–255 bytes (and,
// when overlong, one of 256 bytes in a random record and field),
// arbitrary float bits and 0–600 samples.
func randomRecords(r *sim.RNG, n int, overlong bool) []Record {
	ident := func() string { return strings.Repeat(string(rune('A'+r.Intn(26))), r.Intn(256)) }
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Network: ident(),
			Station: ident(),
			Channel: ident(),
			Start:   math.Float64frombits(r.Uint64()),
			Dt:      r.Uniform(0.01, 2),
			Samples: make([]float64, r.Intn(601)),
		}
		for j := range recs[i].Samples {
			recs[i].Samples[j] = math.Float64frombits(r.Uint64())
		}
	}
	if overlong && n > 0 {
		long := strings.Repeat("x", 256)
		switch rec := &recs[r.Intn(n)]; r.Intn(3) {
		case 0:
			rec.Network = long
		case 1:
			rec.Station = long
		default:
			rec.Channel = long
		}
	}
	return recs
}

// TestWriteMatchesReference: Write emits the reference encoder's bytes
// for random streams, and for a stream with an overlong identifier the
// reference's error, naming the record, with nothing written.
func TestWriteMatchesReference(t *testing.T) {
	r := sim.NewRNG(34)
	for c := 0; c < 200; c++ {
		recs := randomRecords(r, r.Intn(12), c%4 == 3)
		var got, want bytes.Buffer
		errGot, errWant := Write(&got, recs), referenceWrite(&want, recs)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("case %d: error %v, reference %v", c, errGot, errWant)
		}
		if errWant != nil {
			if !strings.Contains(errGot.Error(), "record ") || got.Len() != 0 {
				t.Fatalf("case %d: error %v after %d bytes, want one naming the record before any", c, errGot, got.Len())
			}
			continue
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("case %d: %d bytes differ from the reference's %d", c, got.Len(), want.Len())
		}
	}
}

// TestWriteAllocs pins Write at one buffer per stream: at most two
// allocations for the 363 records of a 121-station scenario.
func TestWriteAllocs(t *testing.T) {
	recs := randomRecords(sim.NewRNG(35), 363, false)
	var buf bytes.Buffer
	buf.Grow(int(EncodedSize(recs)))
	allocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := Write(&buf, recs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("%.0f allocations per Write, want at most 2", allocs)
	}
}
