package vdc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// seededCatalog is the fuzz target's starting state: three products,
// tagged and retrieved, so every route has something to act on.
func seededCatalog(t *testing.T) *Catalog {
	c := NewCatalog()
	a := deposit(t, c, "chile ruptures", TypeRupture, 8.4, "eew")
	b := deposit(t, c, "chile waveforms", TypeWaveform, 9.0, "eew", "training")
	deposit(t, c, "chile archive", TypeArchive, 0)
	for _, id := range []string{a, b, b} {
		if _, err := c.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func saved(t *testing.T, c *Catalog) []byte {
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzServer holds the portal's HTTP boundary to four properties for
// any method, path, query and body: the handler never panics; every
// non-2xx response is a JSON {"error": "vdc: …"} body; a rejected
// request leaves the catalog's Save bytes unchanged; and whatever the
// request did, the saved catalog loads back and saves to the same
// bytes.
func FuzzServer(f *testing.F) {
	for _, seed := range []struct{ method, path, query, body string }{
		{"POST", "/products", "", `{"name":"x","type":"waveform","mw":8.1,"tags":["eew"]}`},
		{"POST", "/products", "", `{"name":"x","type":"rupture"}{"oops"`},
		{"POST", "/products", "", `{"name":"","type":"movie","size_bytes":-1}`},
		{"GET", "/products", "type=waveform&tag=eew&min_mw=8&max_mw=9.5&text=chile", ""},
		{"GET", "/products", "min_mw=NaN", ""},
		{"GET", "/products/vdc-000002", "", ""},
		{"DELETE", "/products/vdc-000001", "", ""},
		{"DELETE", "/products/vdc-000404", "", ""},
		{"POST", "/products/vdc-000003/tags", "", `["gnss"," ","EEW"]`},
		{"POST", "/products/vdc-000003/tags", "", `["a"]["b"]`},
		{"GET", "/popular", "n=2", ""},
		{"GET", "/metrics", "", ""},
		{"PATCH", "/products/x/y", "", ""},
	} {
		f.Add(seed.method, seed.path, seed.query, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		c := seededCatalog(t)
		before := saved(t, c)
		req := &http.Request{
			Method: method,
			URL:    &url.URL{Path: path, RawQuery: query},
			Header: http.Header{},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		rec := httptest.NewRecorder()
		NewServer(c).ServeHTTP(rec, req)

		after := saved(t, c)
		if rec.Code < 200 || rec.Code >= 300 {
			var e struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.HasPrefix(e.Error, "vdc: ") {
				t.Fatalf("%s %s?%s → %d with body %q, want {\"error\":\"vdc: …\"}", method, path, query, rec.Code, rec.Body.Bytes())
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("%s %s?%s rejected with %d but changed the catalog:\n%s\nbecame\n%s", method, path, query, rec.Code, before, after)
			}
		}
		back, err := LoadCatalog(bytes.NewReader(after))
		if err != nil {
			t.Fatalf("catalog after %s %s?%s does not load back: %v\n%s", method, path, query, err, after)
		}
		if again := saved(t, back); !bytes.Equal(again, after) {
			t.Fatalf("save → load → save changed the catalog:\n%s\nbecame\n%s", after, again)
		}
	})
}
