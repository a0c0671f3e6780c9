package vdc

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"fdw/internal/obs"
)

// Server exposes a Catalog over HTTP — the VDC portal API surface:
//
//	POST   /products            deposit (JSON Product body)
//	GET    /products            search (?type= &batch= &region= &tag=
//	                             &min_mw= &max_mw= &text=)
//	GET    /products/{id}       retrieve (counts an access)
//	DELETE /products/{id}       remove
//	POST   /products/{id}/tags  add tags (JSON array of strings)
//	GET    /popular?n=N         prefetch hints
//	GET    /metrics             Prometheus text exposition
//
// Every error, an unknown route included, is a JSON {"error": "vdc: …"}
// body, and a rejected request leaves the catalog unchanged.
type Server struct {
	catalog *Catalog
	obs     *obs.Registry
}

// NewServer wraps catalog in an HTTP handler with its own metrics
// registry (the portal has no simulation clock, so metric timestamps
// read 0; only the values matter).
func NewServer(catalog *Catalog) *Server {
	return &Server{catalog: catalog, obs: obs.NewRegistry(nil)}
}

// statusRecorder captures the response status for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	route := r.URL.Path
	switch {
	case route == "/products":
		s.handleProducts(rec, r)
	case strings.HasPrefix(route, "/products/"):
		route = "/products/{id}" // collapse ids to keep label cardinality bounded
		s.handleProduct(rec, r)
	case route == "/popular":
		s.handlePopular(rec, r)
	case route == "/metrics":
		s.handleMetrics(rec, r)
	default:
		route = "unknown"
		writeErr(rec, http.StatusNotFound, fmt.Errorf("vdc: no such route %q", r.URL.Path))
	}
	if s.obs != nil {
		s.obs.Counter("vdc_http_requests_total",
			"method", r.Method, "route", route, "status", strconv.Itoa(rec.status)).Inc()
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("vdc: method %s not allowed", r.Method))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.obs != nil {
		s.obs.Gauge("vdc_catalog_products").Set(float64(s.catalog.Len()))
		_ = s.obs.WritePrometheus(w)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// queryMw parses an optional magnitude bound; an absent one is 0 (no
// bound). NaN and ±Inf are refused: NaN compares false with every Mw,
// so it would silently match everything.
func queryMw(params url.Values, name string) (float64, error) {
	v := params.Get(name)
	if v == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("vdc: bad %s %q", name, v)
	}
	return f, nil
}

func (s *Server) handleProducts(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var p Product
		if err := decodeOne(r.Body, &p); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("vdc: bad product JSON: %v", err))
			return
		}
		id, err := s.catalog.Deposit(p)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": id})
	case http.MethodGet:
		params := r.URL.Query()
		q := Query{
			Type:   ProductType(params.Get("type")),
			Batch:  params.Get("batch"),
			Region: params.Get("region"),
			Tag:    params.Get("tag"),
			Text:   params.Get("text"),
		}
		var err error
		if q.MinMw, err = queryMw(params, "min_mw"); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if q.MaxMw, err = queryMw(params, "max_mw"); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, s.catalog.Search(q))
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("vdc: method %s not allowed", r.Method))
	}
}

func (s *Server) handleProduct(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/products/")
	parts := strings.Split(rest, "/")
	id := parts[0]
	if id == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("vdc: missing product id"))
		return
	}
	if len(parts) == 2 && parts[1] == "tags" {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("vdc: method %s not allowed", r.Method))
			return
		}
		var tags []string
		if err := decodeOne(r.Body, &tags); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("vdc: bad tags JSON: %v", err))
			return
		}
		if err := s.catalog.Tag(id, tags...); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "tagged"})
		return
	}
	if len(parts) != 1 {
		writeErr(w, http.StatusNotFound, fmt.Errorf("vdc: no such route"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		p, err := s.catalog.Get(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, p)
	case http.MethodDelete:
		if err := s.catalog.Delete(id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("vdc: method %s not allowed", r.Method))
	}
}

func (s *Server) handlePopular(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("vdc: method %s not allowed", r.Method))
		return
	}
	n := 10
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("vdc: bad n %q", v))
			return
		}
		n = parsed
	}
	writeJSON(w, http.StatusOK, s.catalog.Popular(n))
}
