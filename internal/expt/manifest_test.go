package expt

import (
	"encoding/json"
	"testing"
)

// TestLedgerValidation: a bundle ledger that is not well-formed JSON of
// the right shape, or that breaks a structural invariant, is rejected.
func TestLedgerValidation(t *testing.T) {
	cases := map[string]string{
		"truncated":   `{"format":1,"dag":"x","nodes":[{"na`,
		"bad format":  `{"format":99,"dag":"x","nodes":[]}`,
		"no dag":      `{"format":1,"nodes":[]}`,
		"dup node":    `{"format":1,"dag":"x","nodes":[{"name":"a","done":true},{"name":"a","done":false}]}`,
		"empty name":  `{"format":1,"dag":"x","nodes":[{"name":"","done":true}]}`,
		"not json":    `PARENT a CHILD b`,
		"wrong shape": `[1,2,3]`,
	}
	for name, in := range cases {
		var l Ledger
		err := json.Unmarshal([]byte(in), &l)
		if err == nil {
			err = l.Validate()
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := `{"format":1,"dag":"x","nodes":[{"name":"a","done":true},{"name":"b","done":false}]}`
	var l Ledger
	if err := json.Unmarshal([]byte(ok), &l); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("well-formed ledger rejected: %v", err)
	}
	if l.DoneCount() != 1 {
		t.Fatalf("DoneCount = %d, want 1", l.DoneCount())
	}
}
