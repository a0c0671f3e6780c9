package wtrace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/sim"
)

func sampleJobs() []JobRecord {
	return []JobRecord{
		{ID: "1.0", Class: ClassRupture, Submit: 0, Start: 60, End: 210},
		{ID: "1.1", Class: ClassRupture, Submit: 0, Start: 90, End: 250},
		{ID: "2.0", Class: ClassGF, Submit: 300, Start: 360, End: 7560},
		{ID: "3.0", Class: ClassWaveform, Submit: 7600, Start: 7700, End: 8750},
		{ID: "3.1", Class: ClassWaveform, Submit: 7600, Start: -1, End: -1},
	}
}

func TestBatchCSVRoundTrip(t *testing.T) {
	b := BatchRecord{Name: "batch1", Submit: 0, Start: 60, End: 8750}
	var buf bytes.Buffer
	if err := WriteBatchCSV(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatchCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Fatalf("round trip: %+v vs %+v", got, b)
	}
}

func TestJobsCSVRoundTrip(t *testing.T) {
	jobs := sampleJobs()
	var buf bytes.Buffer
	if err := WriteJobsCSV(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJobsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("%d rows, want %d", len(got), len(jobs))
	}
	for i := range jobs {
		if got[i] != jobs[i] {
			t.Fatalf("row %d: %+v vs %+v", i, got[i], jobs[i])
		}
	}
}

func TestJobRecordPredicates(t *testing.T) {
	j := sampleJobs()[4]
	if j.Started() || j.Finished() {
		t.Fatal("unstarted job mispredicted")
	}
	j2 := sampleJobs()[0]
	if !j2.Started() || !j2.Finished() {
		t.Fatal("finished job mispredicted")
	}
}

func TestBatchValidate(t *testing.T) {
	bad := []BatchRecord{
		{Name: "", Submit: 0, Start: 1, End: 2},
		{Name: "x", Submit: 5, Start: 1, End: 2},
		{Name: "x", Submit: 0, Start: 3, End: 2},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	if (BatchRecord{Name: "x", Submit: 0, Start: 1, End: 2}).Validate() != nil {
		t.Fatal("good batch rejected")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadBatchCSV(strings.NewReader("just,one,row\n")); err == nil {
		t.Fatal("malformed batch CSV accepted")
	}
	if _, err := ReadBatchCSV(strings.NewReader("h,h,h,h\na,b,c,d\n")); err == nil {
		t.Fatal("non-numeric batch CSV accepted")
	}
	if _, err := ReadJobsCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty jobs CSV accepted")
	}
	if _, err := ReadJobsCSV(strings.NewReader("h,h,h,h,h\n1.0,alien,0,1,2\n")); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := ReadJobsCSV(strings.NewReader("h,h,h,h,h\n1.0,rupture,zero,1,2\n")); err == nil {
		t.Fatal("bad number accepted")
	}
	if _, err := ReadJobsCSV(strings.NewReader("h,h\n1,2\n")); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestFromSchedd(t *testing.T) {
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("b", k, nil)
	jobs := []*htcondor.Job{
		{Owner: "u", Executable: "fdw_phase_A.sh", BaseExecSeconds: 100},
		{Owner: "u", Executable: "fdw_phase_C.sh", BaseExecSeconds: 100},
		{Owner: "u", Executable: "fdw_phase_B.sh", BaseExecSeconds: 100},
	}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	k.At(10, func() {
		for _, j := range jobs {
			if err := s.MarkRunning(j, "h"); err != nil {
				t.Error(err)
			}
		}
	})
	k.At(110, func() {
		for _, j := range jobs {
			if err := s.MarkCompleted(j, 0); err != nil {
				t.Error(err)
			}
		}
	})
	for k.Step() {
	}
	batch, recs, err := FromSchedd("b", s)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Submit != 0 || batch.Start != 10 || batch.End != 110 {
		t.Fatalf("batch %+v", batch)
	}
	if len(recs) != 3 {
		t.Fatalf("%d job records", len(recs))
	}
	wantClasses := []JobClass{ClassRupture, ClassWaveform, ClassGF}
	for i, r := range recs {
		if r.Class != wantClasses[i] {
			t.Fatalf("job %d class %q, want %q", i, r.Class, wantClasses[i])
		}
		if !r.Finished() || r.End != 110 {
			t.Fatalf("job %d record %+v", i, r)
		}
	}
}

func TestFromScheddEmpty(t *testing.T) {
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("b", k, nil)
	if _, _, err := FromSchedd("b", s); err == nil {
		t.Fatal("empty schedd accepted")
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]JobClass{
		"fdw_phase_A.sh":      ClassRupture,
		"fdw_phase_B.sh":      ClassGF,
		"fdw_phase_C.sh":      ClassWaveform,
		"fdw_phase_matrix.sh": ClassMatrix,
		"other.sh":            ClassMatrix,
	}
	for exe, want := range cases {
		if got := classify(exe); got != want {
			t.Fatalf("classify(%q) = %q, want %q", exe, got, want)
		}
	}
}

func TestReadBatchCSVEdgeCases(t *testing.T) {
	cases := map[string]string{
		"empty input":      "",
		"header only":      "batch,submit,start,end\n",
		"unclosed quote":   "batch,submit,start,end\n\"b,1,2,3\n",
		"too few columns":  "batch,submit,start,end\nb,1,2\n",
		"extra row":        "batch,submit,start,end\nb,1,2,3\nc,4,5,6\n",
		"times unordered":  "batch,submit,start,end\nb,10,5,20\n",
		"empty batch name": "batch,submit,start,end\n,1,2,3\n",
	}
	for name, src := range cases {
		if _, err := ReadBatchCSV(strings.NewReader(src)); err == nil {
			t.Errorf("%s: ReadBatchCSV accepted %q", name, src)
		}
	}
}

func TestReadJobsCSVHeaderOnly(t *testing.T) {
	// A header with no rows is a valid, empty trace — not an error.
	jobs, err := ReadJobsCSV(strings.NewReader("job,class,submit,start,end\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("got %d jobs from header-only CSV", len(jobs))
	}
}

func TestReadJobsCSVDuplicateIDs(t *testing.T) {
	// The reader is a faithful parser: duplicate IDs are preserved in
	// row order for the consumer to judge, not silently deduplicated.
	src := "job,class,submit,start,end\nj1,rupture,0,1,2\nj1,rupture,3,4,5\n"
	jobs, err := ReadJobsCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "j1" || jobs[1].ID != "j1" {
		t.Fatalf("duplicate rows not preserved: %+v", jobs)
	}
	if jobs[0].Submit != 0 || jobs[1].Submit != 3 {
		t.Fatalf("row order not preserved: %+v", jobs)
	}
}

func TestReadJobsCSVWhitespaceNumbers(t *testing.T) {
	// Quoted fields may carry stray spaces; the number parser trims.
	src := "job,class,submit,start,end\nj1,waveform,\" 1.5\",\" 2 \",3\n"
	jobs, err := ReadJobsCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Submit != 1.5 || jobs[0].Start != 2 {
		t.Fatalf("whitespace-padded numbers misparsed: %+v", jobs[0])
	}
}

func TestJobsCSVNeverRanRoundTrip(t *testing.T) {
	// Negative Start/End are the "never started/finished" sentinels
	// and must survive a write/read cycle exactly.
	in := []JobRecord{{ID: "j1", Class: ClassRupture, Submit: 7, Start: -1, End: -1}}
	var buf bytes.Buffer
	if err := WriteJobsCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJobsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Fatalf("round trip changed record: %+v -> %+v", in[0], out[0])
	}
	if out[0].Started() || out[0].Finished() {
		t.Fatal("sentinel times read back as started/finished")
	}
}

// TestNonFiniteTimesRejected: NaN passes every ordering comparison, so
// non-finite times need their own check in Validate and the readers.
func TestNonFiniteTimesRejected(t *testing.T) {
	for i, b := range []BatchRecord{
		{Name: "x", Submit: math.NaN(), Start: 1, End: 2},
		{Name: "x", Submit: 0, Start: 1, End: math.Inf(1)},
		{Name: "x", Submit: math.Inf(-1), Start: 1, End: 2},
	} {
		if b.Validate() == nil {
			t.Errorf("non-finite batch %d accepted: %+v", i, b)
		}
	}
	for _, src := range []string{
		"batch,submit,start,end\nb,NaN,2,3\n",
		"batch,submit,start,end\nb,1,2,+Inf\n",
	} {
		if _, err := ReadBatchCSV(strings.NewReader(src)); err == nil {
			t.Errorf("ReadBatchCSV accepted %q", src)
		}
	}
	for _, v := range []string{"NaN", "Inf", "-inf"} {
		src := "h,h,h,h,h\n1.0,rupture,0,1,2\n1.1,rupture,0,1," + v + "\n"
		if _, err := ReadJobsCSV(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "row 3") {
			t.Errorf("non-finite job time %s: got %v, want an error naming row 3", v, err)
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes to both trace readers. Neither
// may panic; a rejection is a wtrace: error; and an accepted trace
// writes out to bytes that read back and write again byte-identically.
func FuzzReadTrace(f *testing.F) {
	var batch, jobs bytes.Buffer
	if err := WriteBatchCSV(&batch, BatchRecord{Name: "batch1", Submit: 0, Start: 60, End: 8750}); err != nil {
		f.Fatal(err)
	}
	if err := WriteJobsCSV(&jobs, sampleJobs()); err != nil {
		f.Fatal(err)
	}
	f.Add(batch.Bytes())
	f.Add(jobs.Bytes())
	for _, src := range []string{
		"", "just,one,row\n", "h,h,h,h\na,b,c,d\n", "h,h\n1,2\n",
		"h,h,h,h,h\n1.0,alien,0,1,2\n", "h,h,h,h,h\n1.0,rupture,zero,1,2\n",
		"batch,submit,start,end\n\"b,1,2,3\n", "batch,submit,start,end\nb,NaN,2,3\n",
		"job,class,submit,start,end\nj1,waveform,\" 1.5\",\" 2 \",3\n",
		"job,class,submit,start,end\n\"j,\n1\",gf,1e3,-1,0x1p4\n",
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, "batch", data,
			func(b []byte) (any, error) { return ReadBatchCSV(bytes.NewReader(b)) },
			func(w *bytes.Buffer, v any) error { return WriteBatchCSV(w, v.(BatchRecord)) })
		roundTrip(t, "jobs", data,
			func(b []byte) (any, error) { return ReadJobsCSV(bytes.NewReader(b)) },
			func(w *bytes.Buffer, v any) error { return WriteJobsCSV(w, v.([]JobRecord)) })
	})
}

// roundTrip checks one reader/writer pair on data for FuzzReadTrace.
func roundTrip(t *testing.T, kind string, data []byte,
	read func([]byte) (any, error), write func(*bytes.Buffer, any) error) {
	v, err := read(data)
	if err != nil {
		if !strings.HasPrefix(err.Error(), "wtrace: ") {
			t.Fatalf("%s: rejection without the wtrace: prefix: %v", kind, err)
		}
		return
	}
	var first, second bytes.Buffer
	if err := write(&first, v); err != nil {
		t.Fatalf("%s: writing an accepted trace: %v", kind, err)
	}
	again, err := read(first.Bytes())
	if err != nil {
		t.Fatalf("%s: rewritten trace rejected: %v\n%q", kind, err, first.Bytes())
	}
	if err := write(&second, again); err != nil {
		t.Fatalf("%s: writing the reread trace: %v", kind, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%s: round trip changed the bytes:\n%q\n%q", kind, first.Bytes(), second.Bytes())
	}
}
