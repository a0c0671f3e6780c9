package globalstate_clean

// Table is read-only once built: its methods read the receiver or
// write a copy of it.
type Table struct{ rows []string }

// Len only reads.
func (t *Table) Len() int { return len(t.rows) }

// With returns a copy with r appended; the receiver is a value.
func (t Table) With(r string) Table {
	t.rows = append(t.rows, r)
	return t
}

// Reset rebinds its receiver variable, which writes nothing through it.
func (t *Table) Reset() *Table {
	t = &Table{}
	return t
}

var defaults = &Table{rows: []string{"a"}}

// Counter's methods write it, so each run makes its own.
type Counter struct{ n int }

// Inc counts on the receiver.
func (c *Counter) Inc() { c.n++ }

// Rows counts defaults' rows into a Counter the call owns.
func Rows() int {
	var c Counter
	for range defaults.With("b").rows {
		c.Inc()
	}
	return c.n + defaults.Len()
}
