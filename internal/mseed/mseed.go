// Package mseed implements a simplified miniSEED-style codec for the
// GNSS displacement time series that FakeQuakes produces. MudPy ships
// Green's functions and waveforms as .mseed; FDW's Phase B/C outputs and
// the Stash-cache transfer model work on real encoded record sizes from
// this package.
//
// Layout (all integers little-endian; this is a reduced, self-describing
// variant of the fixed-header + data-record structure of miniSEED):
//
//	magic   [4]byte  "FQMS"
//	version uint16   (1)
//	nrec    uint32   record count
//	records:
//	  netLen  uint8, network  []byte
//	  staLen  uint8, station  []byte
//	  chaLen  uint8, channel  []byte
//	  start   float64 seconds since rupture origin
//	  dt      float64 sample interval (s)
//	  nsamp   uint32
//	  samples []float64
package mseed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Record is one channel of one station's time series.
type Record struct {
	Network string
	Station string
	Channel string // e.g. "LXE", "LXN", "LXZ" for GNSS displacement
	Start   float64
	Dt      float64
	Samples []float64
}

var magic = [4]byte{'F', 'Q', 'M', 'S'}

// ErrCorrupt reports a structurally invalid stream.
var ErrCorrupt = errors.New("mseed: corrupt stream")

// Read rejects sample counts over maxSamples and decodes samples
// readChunk float64s at a time.
const (
	maxSamples = 1 << 28 // sanity bound against corrupt lengths
	readChunk  = 1 << 16
)

// Write encodes records to w.
func Write(w io.Writer, records []Record) error {
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
		if err := writeRecord(w, &records[i]); err != nil {
			return fmt.Errorf("mseed: record %d: %w", i, err)
		}
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 255 {
		return fmt.Errorf("identifier %q too long", s)
	}
	if _, err := w.Write([]byte{byte(len(s))}); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func writeRecord(w io.Writer, r *Record) error {
	for _, s := range []string{r.Network, r.Station, r.Channel} {
		if err := writeString(w, s); err != nil {
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

// Read decodes a stream written by Write.
//
//lint:allow deadexport miniSEED reader; file format kept for the ROADMAP emit→parse item, which gives it a production caller
func Read(r io.Reader) ([]Record, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: short magic", ErrCorrupt)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m[:])
	}
	head := make([]byte, 6)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(head[0:]); v != 1 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	n := binary.LittleEndian.Uint32(head[2:])
	records := make([]Record, 0, min(int(n), 4096))
	for i := uint32(0); i < n; i++ {
		rec, err := readRecord(r)
		if err != nil {
			return nil, fmt.Errorf("mseed: record %d: %w", i, err)
		}
		records = append(records, rec)
	}
	return records, nil
}

func readString(r io.Reader) (string, error) {
	var l [1]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", fmt.Errorf("%w: short identifier length", ErrCorrupt)
	}
	buf := make([]byte, l[0])
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: short identifier", ErrCorrupt)
	}
	return string(buf), nil
}

func readRecord(r io.Reader) (Record, error) {
	var rec Record
	var err error
	if rec.Network, err = readString(r); err != nil {
		return rec, err
	}
	if rec.Station, err = readString(r); err != nil {
		return rec, err
	}
	if rec.Channel, err = readString(r); err != nil {
		return rec, err
	}
	fixed := make([]byte, 20)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return rec, fmt.Errorf("%w: short record header", ErrCorrupt)
	}
	rec.Start = math.Float64frombits(binary.LittleEndian.Uint64(fixed[0:]))
	rec.Dt = math.Float64frombits(binary.LittleEndian.Uint64(fixed[8:]))
	nsamp := binary.LittleEndian.Uint32(fixed[16:])
	if nsamp > maxSamples {
		return rec, fmt.Errorf("%w: implausible sample count %d", ErrCorrupt, nsamp)
	}
	// The count is a claim, not a size: samples are decoded readChunk at
	// a time into a slice that grows as they arrive, so a short stream
	// fails at its real length instead of allocating the claim.
	n := int(nsamp)
	buf := make([]byte, 8*min(n, readChunk))
	rec.Samples = make([]float64, 0, min(n, readChunk))
	for len(rec.Samples) < n {
		chunk := buf[:8*min(n-len(rec.Samples), readChunk)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return rec, fmt.Errorf("%w: short samples (want %d)", ErrCorrupt, n)
		}
		for i := 0; i < len(chunk); i += 8 {
			rec.Samples = append(rec.Samples, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
		}
	}
	return rec, nil
}

// EncodedSize returns the exact byte size Write would produce, without
// encoding. The Stash-cache model uses it to price transfers.
func EncodedSize(records []Record) int64 {
	size := int64(4 + 6)
	for i := range records {
		r := &records[i]
		size += int64(3 + len(r.Network) + len(r.Station) + len(r.Channel))
		size += 20 + 8*int64(len(r.Samples))
	}
	return size
}
