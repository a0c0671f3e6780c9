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
	m := &linalg.Matrix{Rows: 2, Cols: 3, Data: []float64{1.5, -2.25, 0, math.Pi, 1e-300, 1e300}}
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
	return rawNPY("{'descr': '<f8', 'fortran_order': False, 'shape': "+shape+", }", data)
}

// rawNPY builds an NPY v1.0 file from a header dict and data bytes.
func rawNPY(dict string, data []byte) []byte {
	header := dict + "\n"
	b := append([]byte{0x93, 'N', 'U', 'M', 'P', 'Y', 1, 0}, byte(len(header)), byte(len(header)>>8))
	return append(append(b, header...), data...)
}

// TestHeaderJudgedByContent: the header is a Python literal, so its
// spacing is free and its values are what count. Legal headers that
// ask for Fortran order or a big-endian dtype must be refused by key,
// never decoded as C-order '<f8' (which transposes or byte-swaps the
// data), and a duplicate or missing key is an error.
func TestHeaderJudgedByContent(t *testing.T) {
	data := make([]byte, 8*6)
	for _, tc := range []struct{ dict, key string }{
		{"{'descr':'<f8','fortran_order':True,'shape':(2,3)}", "fortran_order"},
		{"{'descr': '<f8', 'fortran_order':  True, 'shape': (2, 3), }", "fortran_order"},
		{"{'descr': '>f8', 'fortran_order': False, 'shape': (2, 3), 'note': '<f8', }", "descr"},
		{"{'descr': '<f8', 'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), }", "descr"},
		{"{'descr': '<f8', 'shape': (2, 3), }", "fortran_order"},
		{"{'fortran_order': False, 'shape': (2, 3)}", "descr"},
		{"{'descr': '<f8', 'fortran_order': False, }", "shape"},
	} {
		_, err := Read(bytes.NewReader(rawNPY(tc.dict, data)))
		if err == nil || !strings.Contains(err.Error(), "'"+tc.key+"'") {
			t.Errorf("header %s: err = %v, want an error naming '%s'", tc.dict, err, tc.key)
		}
	}
	for _, dict := range []string{
		"{'descr':'<f8','fortran_order':False,'shape':(2,3)}",
		"{ 'shape' : ( 2 , 3 , ) , 'fortran_order' : False , \"descr\" : \"<f8\" }",
	} {
		m, err := Read(bytes.NewReader(rawNPY(dict, data)))
		if err != nil || m.Rows != 2 || m.Cols != 3 {
			t.Errorf("legal header %s: m = %v, err = %v, want a 2x3 matrix", dict, m, err)
		}
	}
}

// TestWriteStreams: Write encodes through a bounded buffer, so writing
// a 1M-element (8 MB) matrix allocates well under its size.
func TestWriteStreams(t *testing.T) {
	m := linalg.NewMatrix(1000, 1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Write(io.Discard, m); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("writing a %d-element matrix allocated %d bytes, want < 1 MiB", len(m.Data), got)
	}
}

// FuzzRead: Read never panics, names every rejection, and whatever it
// accepts survives Write and a second Read bit for bit. A seekable and
// a stream reader must agree on every input.
func FuzzRead(f *testing.F) {
	for _, m := range []*linalg.Matrix{
		linalg.NewMatrix(0, 0),
		linalg.NewMatrix(3, 5),
		{Rows: 2, Cols: 3, Data: []float64{1.5, -2.25, 0, math.Pi, 1e-300, math.NaN()}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-8])
	}
	for _, shape := range []string{"(2147483648, 2147483648)", "(9223372036854775807, 2)", "(1152921504606846976,)", "(7,)", "(2, 2, 2)", "(9223372036854775807, 0)"} {
		f.Add(hostile(shape, make([]byte, 16)))
	}
	f.Add(rawNPY("{'descr':'<f8','fortran_order':True,'shape':(2,3)}", make([]byte, 48)))
	f.Add(rawNPY("{'descr': '<f4', 'fortran_order': False, 'shape': (1, 1), }", make([]byte, 8)))
	oversized := []byte{0x93, 'N', 'U', 'M', 'P', 'Y', 2, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(oversized[8:], 1<<24)
	f.Add(oversized)
	f.Add([]byte("not an npy file at all"))

	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Read(bytes.NewReader(in))
		sm, serr := Read(struct{ io.Reader }{bytes.NewReader(in)})
		if (err == nil) != (serr == nil) {
			t.Fatalf("seekable err = %v, stream err = %v", err, serr)
		}
		if err != nil {
			for _, e := range []error{err, serr} {
				if !strings.HasPrefix(e.Error(), "npy: ") {
					t.Fatalf("unnamed rejection: %v", e)
				}
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("re-encoding an accepted %dx%d array: %v", m.Rows, m.Cols, err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted %dx%d array: %v", m.Rows, m.Cols, err)
		}
		for _, got := range []*linalg.Matrix{sm, again} {
			if got.Rows != m.Rows || got.Cols != m.Cols || len(got.Data) != len(m.Data) {
				t.Fatalf("shape %dx%d (%d values), want %dx%d (%d values)", got.Rows, got.Cols, len(got.Data), m.Rows, m.Cols, len(m.Data))
			}
			for i := range m.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(m.Data[i]) {
					t.Fatalf("value %d: bits %#x, want %#x", i, math.Float64bits(got.Data[i]), math.Float64bits(m.Data[i]))
				}
			}
		}
	})
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
