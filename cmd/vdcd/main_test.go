package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdw"
	"fdw/internal/vdc"
)

func TestSeedPopulatesCatalog(t *testing.T) {
	c := fdw.NewCatalog()
	if err := seed(c); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 {
		t.Fatalf("seeded %d products, want 4", c.Len())
	}
	found := c.Search(vdc.Query{Tag: "eew"})
	if len(found) != 2 {
		t.Fatalf("eew-tagged products: %d, want 2", len(found))
	}
}

func TestLoadOrNewAndPersist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	c, err := loadOrNew(path) // missing file → empty catalog
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("missing state file should give empty catalog")
	}
	if err := seed(c); err != nil {
		t.Fatal(err)
	}
	if err := saveCatalog(c, path); err != nil {
		t.Fatal(err)
	}
	c2, err := loadOrNew(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("restored %d products, want %d", c2.Len(), c.Len())
	}
}

func TestPersistingMiddlewareSaves(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	c := fdw.NewCatalog()
	srv := httptest.NewServer(persisting(fdw.NewCatalogServer(c), c, path))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/products", "application/json",
		strings.NewReader(`{"name":"x","type":"waveform","batch":"b","region":"chile"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /products → %d", resp.StatusCode)
	}
	restored, err := loadOrNew(path)
	if err != nil {
		t.Fatalf("state not persisted after POST: %v", err)
	}
	if restored.Len() != 1 {
		t.Fatalf("persisted catalog holds %d products, want 1", restored.Len())
	}
}

// TestLoadOrNewRejectsStaleNextID: a state file whose next_id is behind
// a stored id must stop vdcd at startup; loading it would let the next
// deposit overwrite that product.
func TestLoadOrNewRejectsStaleNextID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	state := `{"next_id":0,"products":[{"id":"vdc-000001","name":"keep","type":"rupture"}]}`
	if err := os.WriteFile(path, []byte(state), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadOrNew(path); err == nil || !strings.Contains(err.Error(), "vdc-000001") {
		t.Fatalf("loadOrNew = %v, want an error naming vdc-000001", err)
	}
}

// TestPersistingSkipsRejectedRequests: a POST or DELETE the catalog
// rejects changes nothing, so the state file must keep its bytes.
func TestPersistingSkipsRejectedRequests(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	const sentinel = "sentinel: not rewritten"
	if err := os.WriteFile(path, []byte(sentinel), 0o644); err != nil {
		t.Fatal(err)
	}
	c := fdw.NewCatalog()
	h := persisting(fdw.NewCatalogServer(c), c, path)
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/products", strings.NewReader("garbage")),
		httptest.NewRequest(http.MethodDelete, "/products/vdc-000404", nil),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code < 400 {
			t.Fatalf("%s %s → %d, want an error status", req.Method, req.URL.Path, rec.Code)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != sentinel {
			t.Fatalf("%s %s → %d rewrote the state file: %q", req.Method, req.URL.Path, rec.Code, got)
		}
	}
}
