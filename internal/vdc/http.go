package vdc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
type Server struct {
	catalog *Catalog
	mux     *http.ServeMux
	obs     *obs.Registry
}

// NewServer wraps catalog in an HTTP handler with its own metrics
// registry (the portal has no simulation clock, so metric timestamps
// read 0; only the values matter).
func NewServer(catalog *Catalog) *Server {
	s := &Server{catalog: catalog, mux: http.NewServeMux(), obs: obs.NewRegistry(nil)}
	s.mux.HandleFunc("/products", s.handleProducts)
	s.mux.HandleFunc("/products/", s.handleProduct)
	s.mux.HandleFunc("/popular", s.handlePopular)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
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
	s.mux.ServeHTTP(rec, r)
	route := r.URL.Path
	if strings.HasPrefix(route, "/products/") {
		route = "/products/{id}" // collapse ids to keep label cardinality bounded
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

func (s *Server) handleProducts(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var p Product
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
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
		q := Query{
			Type:   ProductType(r.URL.Query().Get("type")),
			Batch:  r.URL.Query().Get("batch"),
			Region: r.URL.Query().Get("region"),
			Tag:    r.URL.Query().Get("tag"),
			Text:   r.URL.Query().Get("text"),
		}
		if v := r.URL.Query().Get("min_mw"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("vdc: bad min_mw %q", v))
				return
			}
			q.MinMw = f
		}
		if v := r.URL.Query().Get("max_mw"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("vdc: bad max_mw %q", v))
				return
			}
			q.MaxMw = f
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
		if err := json.NewDecoder(r.Body).Decode(&tags); err != nil {
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

// Client talks to a VDC portal over HTTP.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the portal at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTP: http.DefaultClient}
}

func (c *Client) do(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("vdc: %s", e.Error)
		}
		return fmt.Errorf("vdc: HTTP %d from %s %s", resp.StatusCode, method, path)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Deposit stores a product and returns its assigned id.
func (c *Client) Deposit(p Product) (string, error) {
	var res struct {
		ID string `json:"id"`
	}
	if err := c.do(http.MethodPost, "/products", p, &res); err != nil {
		return "", err
	}
	return res.ID, nil
}

// Get retrieves one product.
func (c *Client) Get(id string) (Product, error) {
	var p Product
	err := c.do(http.MethodGet, "/products/"+id, nil, &p)
	return p, err
}

// Tag adds tags to a product.
func (c *Client) Tag(id string, tags ...string) error {
	return c.do(http.MethodPost, "/products/"+id+"/tags", tags, nil)
}

// Search queries the catalog.
func (c *Client) Search(q Query) ([]Product, error) {
	params := make([]string, 0, 7)
	add := func(k, v string) {
		if v != "" {
			params = append(params, k+"="+v)
		}
	}
	add("type", string(q.Type))
	add("batch", q.Batch)
	add("region", q.Region)
	add("tag", q.Tag)
	add("text", q.Text)
	if q.MinMw > 0 {
		add("min_mw", strconv.FormatFloat(q.MinMw, 'g', -1, 64))
	}
	if q.MaxMw > 0 {
		add("max_mw", strconv.FormatFloat(q.MaxMw, 'g', -1, 64))
	}
	path := "/products"
	if len(params) > 0 {
		path += "?" + strings.Join(params, "&")
	}
	var out []Product
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// Popular fetches the prefetch-hint list.
func (c *Client) Popular(n int) ([]Product, error) {
	var out []Product
	err := c.do(http.MethodGet, "/popular?n="+strconv.Itoa(n), nil, &out)
	return out, err
}
