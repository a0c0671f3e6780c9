package vdc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fdw/internal/obs"
)

func deposit(t *testing.T, c *Catalog, name string, typ ProductType, mw float64, tags ...string) string {
	t.Helper()
	id, err := c.Deposit(Product{
		Name: name, Type: typ, Batch: "b1", Region: "chile",
		Mw: mw, SizeBytes: 1024, Tags: tags,
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestDepositGetDelete(t *testing.T) {
	c := NewCatalog()
	id := deposit(t, c, "run000001 waveforms", TypeWaveform, 8.1)
	p, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "run000001 waveforms" || p.Accesses != 1 {
		t.Fatalf("product %+v", p)
	}
	if _, err := c.Get(id); err != nil {
		t.Fatal(err)
	}
	p2, _ := c.Get(id)
	if p2.Accesses != 3 {
		t.Fatalf("accesses %d, want 3", p2.Accesses)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(id); err == nil {
		t.Fatal("deleted product retrievable")
	}
	if err := c.Delete(id); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestDepositValidation(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Deposit(Product{Type: TypeWaveform}); err == nil {
		t.Fatal("nameless product accepted")
	}
	if _, err := c.Deposit(Product{Name: "x", Type: "movie"}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := c.Deposit(Product{Name: "x", Type: TypeRupture, SizeBytes: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestSearchFilters(t *testing.T) {
	c := NewCatalog()
	deposit(t, c, "wf small", TypeWaveform, 7.9, "eew", "training")
	deposit(t, c, "wf big", TypeWaveform, 8.9, "eew")
	deposit(t, c, "rupture set", TypeRupture, 8.2)

	if got := c.Search(Query{}); len(got) != 3 {
		t.Fatalf("unfiltered search returned %d", len(got))
	}
	if got := c.Search(Query{Type: TypeWaveform}); len(got) != 2 {
		t.Fatalf("type filter returned %d", len(got))
	}
	if got := c.Search(Query{Tag: "TRAINING"}); len(got) != 1 {
		t.Fatalf("tag filter returned %d", len(got))
	}
	if got := c.Search(Query{MinMw: 8.5}); len(got) != 1 || got[0].Name != "wf big" {
		t.Fatalf("min_mw filter returned %v", got)
	}
	if got := c.Search(Query{MaxMw: 8.0}); len(got) != 1 {
		t.Fatalf("max_mw filter returned %d", len(got))
	}
	if got := c.Search(Query{Text: "BIG"}); len(got) != 1 {
		t.Fatalf("text filter returned %d", len(got))
	}
	if got := c.Search(Query{Region: "cascadia"}); len(got) != 0 {
		t.Fatalf("region filter returned %d", len(got))
	}
	if got := c.Search(Query{Batch: "b1", Type: TypeRupture}); len(got) != 1 {
		t.Fatalf("combined filter returned %d", len(got))
	}
}

func TestTagging(t *testing.T) {
	c := NewCatalog()
	id := deposit(t, c, "wf", TypeWaveform, 8.0)
	if err := c.Tag(id, "eew", "eew", "EEW", " ", "chile-2023"); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Get(id)
	if len(p.Tags) != 2 {
		t.Fatalf("tags %v, want deduplicated pair", p.Tags)
	}
	if err := c.Tag("vdc-999999", "x"); err == nil {
		t.Fatal("tagging missing product accepted")
	}
}

func TestPopularOrdering(t *testing.T) {
	c := NewCatalog()
	a := deposit(t, c, "a", TypeWaveform, 8.0)
	b := deposit(t, c, "b", TypeWaveform, 8.0)
	deposit(t, c, "cold", TypeRupture, 8.0)
	for i := 0; i < 5; i++ {
		if _, err := c.Get(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(a); err != nil {
		t.Fatal(err)
	}
	top := c.Popular(2)
	if len(top) != 2 || top[0].Name != "b" || top[1].Name != "a" {
		t.Fatalf("popular %v", top)
	}
	if got := c.Popular(100); len(got) != 3 {
		t.Fatalf("popular(100) returned %d", len(got))
	}
	if got := c.Popular(-1); len(got) != 0 {
		t.Fatalf("popular(-1) returned %d", len(got))
	}
}

// call sends one request straight to h and checks its status. A 2xx
// body is decoded into out when out is non-nil; any other body must be
// the API's JSON error, whose message it returns.
func call(t *testing.T, h http.Handler, method, target, body string, want int, out any) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if rec.Code != want {
		t.Fatalf("%s %s → %d (%s), want %d", method, target, rec.Code, rec.Body.String(), want)
	}
	if rec.Code >= 300 {
		var e struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.HasPrefix(e.Error, "vdc: ") {
			t.Fatalf("%s %s → error body %q, want {\"error\":\"vdc: …\"}", method, target, rec.Body.String())
		}
		return e.Error
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s → body %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return ""
}

func TestHTTPRoundTrip(t *testing.T) {
	s := NewServer(NewCatalog())
	var created struct{ ID string }
	call(t, s, "POST", "/products", `{"name":"run000042 waveforms","type":"waveform",
		"batch":"fdw-1","region":"chile","mw":8.4,"size_bytes":5242880}`, http.StatusCreated, &created)
	id := created.ID
	if !strings.HasPrefix(id, "vdc-") {
		t.Fatalf("id %q", id)
	}
	call(t, s, "POST", "/products/"+id+"/tags", `["eew","training"]`, http.StatusOK, nil)
	var p Product
	call(t, s, "GET", "/products/"+id, "", http.StatusOK, &p)
	if p.Mw != 8.4 || len(p.Tags) != 2 || p.Accesses != 1 {
		t.Fatalf("product %+v", p)
	}
	var found []Product
	call(t, s, "GET", "/products?type=waveform&tag=eew&min_mw=8", "", http.StatusOK, &found)
	if len(found) != 1 || found[0].ID != id {
		t.Fatalf("search %v", found)
	}
	call(t, s, "GET", "/products?max_mw=8", "", http.StatusOK, &found)
	if len(found) != 0 {
		t.Fatalf("max_mw search %v", found)
	}
	var pop []Product
	call(t, s, "GET", "/popular?n=5", "", http.StatusOK, &pop)
	if len(pop) != 1 {
		t.Fatalf("popular %v", pop)
	}
	call(t, s, "DELETE", "/products/"+id, "", http.StatusOK, nil)
	call(t, s, "GET", "/products/"+id, "", http.StatusNotFound, nil)
}

func TestHTTPErrors(t *testing.T) {
	c := NewCatalog()
	id := deposit(t, c, "kept", TypeRupture, 8.0)
	s := NewServer(c)
	var before bytes.Buffer
	if err := c.Save(&before); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path, body string
		wantStatus         int
		wantErr            string // substring of the error message
	}{
		{"POST", "/products", `{"name":"x","type":"junk"}`, http.StatusBadRequest, "unknown product type"},
		{"GET", "/products/vdc-000404", "", http.StatusNotFound, "vdc-000404"},
		{"DELETE", "/products/vdc-000404", "", http.StatusNotFound, "vdc-000404"},
		{"PUT", "/products", "", http.StatusMethodNotAllowed, "PUT"},
		{"POST", "/products", "{not json", http.StatusBadRequest, "product JSON"},
		{"POST", "/products", `{"name":"x","type":"rupture"}{"oops"`, http.StatusBadRequest, "trailing data"},
		{"POST", "/products", `{"name":"x","type":"rupture"} x`, http.StatusBadRequest, "trailing data"},
		{"GET", "/products?min_mw=high", "", http.StatusBadRequest, "min_mw"},
		{"GET", "/products?max_mw=low", "", http.StatusBadRequest, "max_mw"},
		{"GET", "/products?min_mw=NaN", "", http.StatusBadRequest, "min_mw"},
		{"GET", "/products?max_mw=NaN", "", http.StatusBadRequest, "max_mw"},
		{"GET", "/products?min_mw=-Inf", "", http.StatusBadRequest, "min_mw"},
		{"GET", "/products?max_mw=%2BInf", "", http.StatusBadRequest, "max_mw"},
		{"GET", "/products?max_mw=1e999", "", http.StatusBadRequest, "max_mw"},
		{"POST", "/popular", "", http.StatusMethodNotAllowed, "POST"},
		{"GET", "/popular?n=-2", "", http.StatusBadRequest, "bad n"},
		{"GET", "/popular?n=notanumber", "", http.StatusBadRequest, "bad n"},
		{"GET", "/products/", "", http.StatusBadRequest, "missing product id"},
		{"GET", "/products/x/y/z", "", http.StatusNotFound, "no such route"},
		{"GET", "/products/x/tags", "", http.StatusMethodNotAllowed, "GET"},
		{"POST", "/products/" + id + "/tags", "[1,2]", http.StatusBadRequest, "tags JSON"},
		{"POST", "/products/" + id + "/tags", `["a"]["b"]`, http.StatusBadRequest, "trailing data"},
		{"POST", "/products/" + id + "/tags", "{not json", http.StatusBadRequest, "tags JSON"},
		{"POST", "/products/vdc-000404/tags", `["a"]`, http.StatusNotFound, "vdc-000404"},
		{"DELETE", "/products/x/tags", "", http.StatusMethodNotAllowed, "DELETE"},
		{"PUT", "/products/x", "", http.StatusMethodNotAllowed, "PUT"},
		{"POST", "/metrics", "", http.StatusMethodNotAllowed, "POST"},
		{"GET", "/nowhere", "", http.StatusNotFound, "no such route"},
		{"GET", "//products", "", http.StatusNotFound, "no such route"},
	} {
		if msg := call(t, s, tc.method, tc.path, tc.body, tc.wantStatus, nil); !strings.Contains(msg, tc.wantErr) {
			t.Errorf("%s %s: error %q does not name %q", tc.method, tc.path, msg, tc.wantErr)
		}
	}
	var after bytes.Buffer
	if err := c.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("rejected requests changed the catalog:\n%s\nbecame\n%s", before.Bytes(), after.Bytes())
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	s := NewServer(NewCatalog())
	call(t, s, "POST", "/products", `{"name":"wf","type":"waveform","mw":8}`, http.StatusCreated, nil)
	call(t, s, "GET", "/products/vdc-000404", "", http.StatusNotFound, nil)
	call(t, s, "GET", "/no/such/route/vdc-000405", "", http.StatusNotFound, nil)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics → %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE vdc_http_requests_total counter",
		`vdc_http_requests_total{method="POST",route="/products",status="201"} 1`,
		`vdc_http_requests_total{method="GET",route="/products/{id}",status="404"} 1`,
		`vdc_http_requests_total{method="GET",route="unknown",status="404"} 1`,
		"vdc_catalog_products 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "vdc-00040") {
		t.Error("request paths leaked into metric labels")
	}

	// The registry accessor exposes the same counters programmatically.
	snap := s.Registry().Snapshot()
	var total uint64
	for _, c := range snap.Counters {
		if c.Name == "vdc_http_requests_total" {
			total += c.Value
		}
	}
	if total < 3 {
		t.Fatalf("request counter total %d, want >= 3", total)
	}
}

func TestCatalogLen(t *testing.T) {
	c := NewCatalog()
	if c.Len() != 0 {
		t.Fatal("new catalog not empty")
	}
	deposit(t, c, "x", TypeArchive, 0)
	if c.Len() != 1 {
		t.Fatal("Len != 1 after deposit")
	}
}

func TestCatalogSaveLoad(t *testing.T) {
	c := NewCatalog()
	id := deposit(t, c, "persisted", TypeWaveform, 8.3, "eew")
	if _, err := c.Get(id); err != nil { // bump access counter
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatalf("loaded %d products", c2.Len())
	}
	p, err := c2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "persisted" || !p.HasTag("eew") || p.Accesses != 2 {
		t.Fatalf("restored product %+v", p)
	}
	// New deposits continue the ID sequence without collisions.
	id2 := deposit(t, c2, "later", TypeRupture, 8.0)
	if id2 == id {
		t.Fatal("ID collision after restore")
	}
}

func TestLoadCatalogRejectsCorrupt(t *testing.T) {
	for _, tc := range []struct{ state, wantErr string }{
		{"{ not json", "loading catalog"},
		{`{"next_id":1,"products":[{"id":"x","type":"movie","name":"m"}]}`, "corrupt catalog entry"},
		// A next_id behind a stored id: the next Deposit would reuse
		// vdc-000001 and silently replace "keep".
		{`{"next_id":0,"products":[{"id":"vdc-000001","name":"keep","type":"rupture"}]}`, `"vdc-000001" lies past next_id 0`},
		{`{"next_id":7,"products":[{"id":"vdc-000002","name":"a","type":"rupture"},{"id":"vdc-000002","name":"b","type":"rupture"}]}`, `"vdc-000002" appears twice`},
		{`{"next_id":-1,"products":[]}`, "negative next_id"},
		{`{"next_id":1,"products":[]}{"next_id":2}`, "trailing data"},
		{`{"next_id":1,"products":[]} garbage`, "trailing data"},
	} {
		_, err := LoadCatalog(strings.NewReader(tc.state))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("LoadCatalog(%s) = %v, want an error naming %q", tc.state, err, tc.wantErr)
		}
	}
}

// TestLoadCatalogForeignIDs: ids Deposit never assigns (another
// scheme, or a non-canonical spelling of a sequence number) cannot
// collide with a deposit, so they load whatever next_id says.
func TestLoadCatalogForeignIDs(t *testing.T) {
	c, err := LoadCatalog(strings.NewReader(`{"next_id":0,"products":[
		{"id":"imported-7","name":"a","type":"rupture"},
		{"id":"vdc-1","name":"b","type":"rupture"},
		{"id":"vdc-+00001","name":"c","type":"rupture"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if id := deposit(t, c, "new", TypeWaveform, 8.0); id != "vdc-000001" || c.Len() != 4 {
		t.Fatalf("deposit got %q, catalog holds %d products, want vdc-000001 and 4", id, c.Len())
	}
}

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.obs }
