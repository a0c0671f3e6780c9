// Command vdcd serves the VDC data-services catalog over HTTP — the
// portal through which FDW data products are deposited, curated,
// discovered, and retrieved (the paper's Fig. 7 pipeline).
//
// Usage:
//
//	vdcd -addr :8080 [-demo] [-state catalog.json]
//
// With -state the catalog is loaded from the file at startup (if it
// exists) and saved back after every mutating request, so the curated
// collection survives restarts.
//
// With -demo the catalog starts pre-populated with a small set of
// synthetic Chilean products so the API can be explored immediately:
//
//	curl localhost:8080/products?type=waveform&min_mw=8
//	curl localhost:8080/popular?n=3
//
// Request counters and catalog gauges are exported in Prometheus text
// format at /metrics.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"fdw"
	"fdw/internal/core/atomicfile"
)

func main() {
	var (
		addr  = flag.String("addr", ":8080", "listen address")
		demo  = flag.Bool("demo", false, "pre-populate the catalog with demo products")
		state = flag.String("state", "", "persist the catalog to this JSON file")
	)
	flag.Parse()

	catalog, err := loadOrNew(*state)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdcd:", err)
		os.Exit(1)
	}
	if *demo && catalog.Len() == 0 {
		if err := seed(catalog); err != nil {
			fmt.Fprintln(os.Stderr, "vdcd:", err)
			os.Exit(1)
		}
		log.Printf("catalog seeded with %d demo products", catalog.Len())
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           persisting(fdw.NewCatalogServer(catalog), catalog, *state),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("VDC catalog listening on %s (metrics at /metrics)", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "vdcd:", err)
		os.Exit(1)
	}
}

// loadOrNew restores the catalog from path when it exists.
func loadOrNew(path string) (*fdw.Catalog, error) {
	if path == "" {
		return fdw.NewCatalog(), nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return fdw.NewCatalog(), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := fdw.LoadCatalog(f)
	if err != nil {
		return nil, err
	}
	log.Printf("catalog restored from %s (%d products)", path, c.Len())
	return c, nil
}

// persisting saves the catalog after every mutating request that
// succeeded; a rejected POST or DELETE changed nothing, so it leaves
// the state file alone.
func persisting(h http.Handler, c *fdw.Catalog, path string) http.Handler {
	if path == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		mutating := r.Method == http.MethodPost || r.Method == http.MethodDelete
		if mutating && sw.status >= 200 && sw.status < 300 {
			if err := saveCatalog(c, path); err != nil {
				log.Printf("vdcd: persisting catalog: %v", err)
			}
		}
	})
}

// statusWriter records the status a handler answered with; a handler
// that writes a body without calling WriteHeader answered 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func saveCatalog(c *fdw.Catalog, path string) error {
	return atomicfile.WriteFile(path, c.Save)
}

func seed(c *fdw.Catalog) error {
	demo := []fdw.Product{
		{Name: "chile-16k ruptures", Type: "rupture", Batch: "chile-16k", Region: "chile", Mw: 8.4, SizeBytes: 64 << 20, Tags: []string{"eew", "training"}, Description: "16,000 stochastic rupture scenarios, Mw 7.8-9.2"},
		{Name: "chile-16k greens functions", Type: "greens-functions", Batch: "chile-16k", Region: "chile", SizeBytes: 1 << 30, Tags: []string{"recyclable"}, Description: "121-station GF archive (.mseed)"},
		{Name: "chile-16k waveforms", Type: "waveform", Batch: "chile-16k", Region: "chile", Mw: 8.4, SizeBytes: 40 << 30, Tags: []string{"eew", "training", "gnss"}, Description: "synthetic high-rate GNSS displacement waveforms"},
		{Name: "chile-16k archive", Type: "archive", Batch: "chile-16k", Region: "chile", SizeBytes: 41 << 30, Description: "congregated, labeled, archived batch output"},
	}
	for _, p := range demo {
		if _, err := c.Deposit(p); err != nil {
			return err
		}
	}
	return nil
}
