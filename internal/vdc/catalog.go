// Package vdc models the Virtual Data Collaboratory's data services
// (Parashar et al. 2020): a federated catalog where FDW deposits its
// AI-ready synthetic data products, curates them with metadata and
// tags, and serves them to EEW researchers (the paper's Fig. 7
// pipeline). It offers an in-process catalog, an HTTP API (portal),
// and access tracking for "intelligent data delivery" prefetch hints.
package vdc

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ProductType classifies FDW data products.
type ProductType string

// Product types stored in the catalog.
const (
	TypeRupture  ProductType = "rupture"
	TypeGF       ProductType = "greens-functions"
	TypeWaveform ProductType = "waveform"
	TypeArchive  ProductType = "archive"
)

func validType(t ProductType) bool {
	switch t {
	case TypeRupture, TypeGF, TypeWaveform, TypeArchive:
		return true
	}
	return false
}

// Product is one curated data product.
type Product struct {
	ID          string      `json:"id"`
	Name        string      `json:"name"`
	Type        ProductType `json:"type"`
	Batch       string      `json:"batch"`  // originating FDW batch
	Region      string      `json:"region"` // e.g. "chile"
	Mw          float64     `json:"mw,omitempty"`
	SizeBytes   int64       `json:"size_bytes"`
	Description string      `json:"description,omitempty"`
	Tags        []string    `json:"tags,omitempty"`
	Accesses    int64       `json:"accesses"`
}

// HasTag reports whether p carries the tag (case-insensitive).
func (p *Product) HasTag(tag string) bool {
	for _, t := range p.Tags {
		if strings.EqualFold(t, tag) {
			return true
		}
	}
	return false
}

// Query filters catalog searches; zero values match everything.
type Query struct {
	Type   ProductType
	Batch  string
	Region string
	Tag    string
	MinMw  float64
	MaxMw  float64
	Text   string // substring of name or description
}

func (q Query) matches(p *Product) bool {
	if q.Type != "" && p.Type != q.Type {
		return false
	}
	if q.Batch != "" && !strings.EqualFold(q.Batch, p.Batch) {
		return false
	}
	if q.Region != "" && !strings.EqualFold(q.Region, p.Region) {
		return false
	}
	if q.Tag != "" && !p.HasTag(q.Tag) {
		return false
	}
	if q.MinMw > 0 && p.Mw < q.MinMw {
		return false
	}
	if q.MaxMw > 0 && p.Mw > q.MaxMw {
		return false
	}
	if q.Text != "" {
		t := strings.ToLower(q.Text)
		if !strings.Contains(strings.ToLower(p.Name), t) &&
			!strings.Contains(strings.ToLower(p.Description), t) {
			return false
		}
	}
	return true
}

// Catalog is a thread-safe product store.
type Catalog struct {
	mu       sync.RWMutex
	products map[string]*Product
	nextID   int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{products: map[string]*Product{}}
}

// Deposit validates and stores a product, assigning its ID.
func (c *Catalog) Deposit(p Product) (string, error) {
	if p.Name == "" {
		return "", fmt.Errorf("vdc: product needs a name")
	}
	if !validType(p.Type) {
		return "", fmt.Errorf("vdc: unknown product type %q", p.Type)
	}
	if p.SizeBytes < 0 {
		return "", fmt.Errorf("vdc: negative size")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	p.ID = productID(c.nextID)
	p.Accesses = 0
	c.products[p.ID] = &p
	return p.ID, nil
}

// Get retrieves a product and counts the access (retrieval telemetry
// feeds the prefetcher).
func (c *Catalog) Get(id string) (Product, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.products[id]
	if !ok {
		return Product{}, fmt.Errorf("vdc: no product %q", id)
	}
	p.Accesses++
	return *p, nil
}

// Delete removes a product.
func (c *Catalog) Delete(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.products[id]; !ok {
		return fmt.Errorf("vdc: no product %q", id)
	}
	delete(c.products, id)
	return nil
}

// Tag appends tags to a product (duplicates ignored, case-insensitive).
func (c *Catalog) Tag(id string, tags ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.products[id]
	if !ok {
		return fmt.Errorf("vdc: no product %q", id)
	}
	for _, t := range tags {
		t = strings.TrimSpace(t)
		if t == "" || p.HasTag(t) {
			continue
		}
		p.Tags = append(p.Tags, t)
	}
	return nil
}

// Search returns matching products ordered by ID. It does not count
// accesses (discovery is free; retrieval is what the prefetcher
// learns from).
func (c *Catalog) Search(q Query) []Product {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Product
	for _, p := range c.products {
		if q.matches(p) {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the number of products.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.products)
}

// Popular returns the n most-retrieved products — the "intelligent
// data delivery" prefetch hint set (Qin et al. 2022).
func (c *Catalog) Popular(n int) []Product {
	c.mu.RLock()
	defer c.mu.RUnlock()
	all := make([]Product, 0, len(c.products))
	for _, p := range c.products {
		all = append(all, *p)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Accesses != all[j].Accesses {
			return all[i].Accesses > all[j].Accesses
		}
		return all[i].ID < all[j].ID
	})
	if n > len(all) {
		n = len(all)
	}
	if n < 0 {
		n = 0
	}
	return all[:n]
}

// Save serializes the catalog as JSON (products sorted by ID), so a
// portal restart preserves the curated collection.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	all := make([]*Product, 0, len(c.products))
	for _, p := range c.products {
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	state := catalogState{NextID: c.nextID, Products: all}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(state)
}

// productID is the id Deposit assigns to the n-th product.
func productID(n int) string { return fmt.Sprintf("vdc-%06d", n) }

// LoadCatalog restores a catalog written by Save. It rejects, naming
// the entry, a state Save cannot write that would corrupt later
// deposits: a second entry with the same id, or an id past next_id,
// which the next Deposit would assign again and so silently replace
// the stored product. A negative next_id and bytes after the JSON value
// are errors too.
func LoadCatalog(r io.Reader) (*Catalog, error) {
	var state catalogState
	if err := decodeOne(r, &state); err != nil {
		return nil, fmt.Errorf("vdc: loading catalog: %w", err)
	}
	if state.NextID < 0 {
		return nil, fmt.Errorf("vdc: loading catalog: negative next_id %d", state.NextID)
	}
	c := NewCatalog()
	c.nextID = state.NextID
	for _, p := range state.Products {
		if p == nil || p.ID == "" || !validType(p.Type) {
			return nil, fmt.Errorf("vdc: corrupt catalog entry %+v", p)
		}
		if _, dup := c.products[p.ID]; dup {
			return nil, fmt.Errorf("vdc: catalog entry %q appears twice", p.ID)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(p.ID, "vdc-")); err == nil && n > c.nextID && productID(n) == p.ID {
			return nil, fmt.Errorf("vdc: catalog entry %q lies past next_id %d", p.ID, c.nextID)
		}
		c.products[p.ID] = p
	}
	return c, nil
}

// decodeOne decodes exactly one JSON value from r. Anything but
// whitespace after it is an error: a request body or state file with
// more in it meant something that would otherwise be silently dropped.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after offset %d", end)
	}
	return nil
}

type catalogState struct {
	NextID   int        `json:"next_id"`
	Products []*Product `json:"products"`
}
