package npy

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"fdw/internal/linalg"
	"fdw/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	m, _ := linalg.FromRows([][]float64{{1.5, -2.25, 0}, {math.Pi, 1e-300, 1e300}})
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 2 || got.Cols != 3 {
		t.Fatalf("shape %dx%d, want 2x3", got.Rows, got.Cols)
	}
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("data[%d] = %v, want %v", i, got.Data[i], m.Data[i])
		}
	}
}

func TestHeaderIs64ByteAligned(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, linalg.NewMatrix(3, 5)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	hlen := int(binary.LittleEndian.Uint16(b[8:10]))
	if (10+hlen)%64 != 0 {
		t.Fatalf("header end at %d not 64-aligned", 10+hlen)
	}
	if b[10+hlen-1] != '\n' {
		t.Fatal("header not newline-terminated")
	}
}

func TestMagicValidation(t *testing.T) {
	if _, err := Read(strings.NewReader("not an npy file at all")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRejectsUnsupportedDtype(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, linalg.NewMatrix(1, 1)); err != nil {
		t.Fatal(err)
	}
	b := bytes.Replace(buf.Bytes(), []byte("'<f8'"), []byte("'<f4'"), 1)
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("unsupported dtype accepted")
	}
}

func TestRejectsFortranOrder(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, linalg.NewMatrix(1, 1)); err != nil {
		t.Fatal(err)
	}
	b := bytes.Replace(buf.Bytes(), []byte("False"), []byte("True "), 1)
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("fortran order accepted")
	}
}

func TestTruncatedDataRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, linalg.NewMatrix(4, 4)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)-8])); err == nil {
		t.Fatal("truncated data accepted")
	}
}

func TestParseHeader1D(t *testing.T) {
	rows, cols, err := parseHeader("{'descr': '<f8', 'fortran_order': False, 'shape': (7,), }")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 || cols != 7 {
		t.Fatalf("1-D shape parsed as %dx%d", rows, cols)
	}
}

func TestParseHeader3DRejected(t *testing.T) {
	if _, _, err := parseHeader("{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2, 2), }"); err == nil {
		t.Fatal("3-D shape accepted")
	}
}

func TestParseHeaderMalformed(t *testing.T) {
	for _, h := range []string{
		"{'descr': '<f8', 'fortran_order': False}",
		"{'descr': '<f8', 'fortran_order': False, 'shape': )(, }",
		"{'descr': '<f8', 'fortran_order': False, 'shape': (x, 2), }",
	} {
		if _, _, err := parseHeader(h); err == nil {
			t.Fatalf("malformed header accepted: %q", h)
		}
	}
}

func TestPropertyRoundTripArbitraryMatrices(t *testing.T) {
	rng := sim.NewRNG(4)
	f := func(seed uint64, rRaw, cRaw uint8) bool {
		rows := int(rRaw%20) + 1
		cols := int(cRaw%20) + 1
		r := rng.Split(seed)
		m := linalg.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 1e6)
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Rows != rows || got.Cols != cols {
			return false
		}
		for i := range m.Data {
			if got.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMatrix(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, linalg.NewMatrix(0, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 0 || got.Cols != 0 {
		t.Fatalf("empty matrix round-tripped as %dx%d", got.Rows, got.Cols)
	}
}

// hostile builds an NPY v1.0 file whose header claims shape but which
// carries only the given data bytes.
func hostile(shape string, data []byte) []byte {
	header := "{'descr': '<f8', 'fortran_order': False, 'shape': " + shape + ", }\n"
	b := append([]byte{0x93, 'N', 'U', 'M', 'P', 'Y', 1, 0}, byte(len(header)), byte(len(header)>>8))
	return append(append(b, header...), data...)
}

// TestHostileShapeRejected: a header whose element or byte count
// overflows is an error — never a makeslice panic, never a matrix whose
// shape disagrees with its data.
func TestHostileShapeRejected(t *testing.T) {
	for _, shape := range []string{
		"(2147483648, 2147483648)",
		"(4294967296, 4294967296)",
		"(9223372036854775807, 2)",
		"(1152921504606846976,)",
	} {
		m, err := Read(bytes.NewReader(hostile(shape, make([]byte, 16))))
		if err == nil {
			t.Fatalf("shape %s accepted as %dx%d with %d elements", shape, m.Rows, m.Cols, len(m.Data))
		}
	}
}

// TestShortDataNoUpfrontAllocation: a short input that claims a large
// shape fails at its real length without first allocating the claimed
// 64 MiB — whether it can report its length (seekable) or not.
func TestShortDataNoUpfrontAllocation(t *testing.T) {
	in := hostile("(8192, 1024)", make([]byte, 80))
	for name, r := range map[string]io.Reader{
		"seekable": bytes.NewReader(in),
		"stream":   struct{ io.Reader }{bytes.NewReader(in)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Read(r); err == nil {
			t.Fatalf("%s: short data accepted", name)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Fatalf("%s: rejecting a short input allocated %d bytes", name, got)
		}
	}
}

// TestOversizedHeaderRejected: a v2.0 header length is a 32-bit claim;
// one past the limit is refused before anything is allocated for it.
func TestOversizedHeaderRejected(t *testing.T) {
	b := []byte{0x93, 'N', 'U', 'M', 'P', 'Y', 2, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[8:], 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("oversized header accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("rejecting an oversized header allocated %d bytes", got)
	}
}

// TestMultiChunkRoundTrip crosses several read chunks and an uneven
// final one, from a seekable input and from a stream that makes the
// data slice grow.
func TestMultiChunkRoundTrip(t *testing.T) {
	m := linalg.NewMatrix(3, readChunk+7)
	for i := range m.Data {
		m.Data[i] = float64(i) * 0.5
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"seekable": bytes.NewReader(buf.Bytes()),
		"stream":   struct{ io.Reader }{bytes.NewReader(buf.Bytes())},
	} {
		got, err := Read(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Rows != m.Rows || got.Cols != m.Cols || len(got.Data) != len(m.Data) {
			t.Fatalf("%s: shape %dx%d (%d elements), want %dx%d", name, got.Rows, got.Cols, len(got.Data), m.Rows, m.Cols)
		}
		for i := range m.Data {
			if got.Data[i] != m.Data[i] {
				t.Fatalf("%s: data[%d] = %v, want %v", name, i, got.Data[i], m.Data[i])
			}
		}
	}
}
