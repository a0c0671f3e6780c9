package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"fdw/internal/linalg"
)

// TestCPUSharesLinalgLoop profiles a loop that only multiplies
// matrices: the shares must sum to 1 and land in linalg or the runtime.
func TestCPUSharesLinalgLoop(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	a := linalg.NewMatrix(160, 160)
	for i := range a.Data {
		a.Data[i] = float64(i%7) + 1
	}
	for start := time.Now(); time.Since(start) < time.Second; {
		if _, err := a.Mul(a); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum, linalgOrRuntime float64
	for name, v := range shares {
		sum += v
		if name == "linalg.cpu_share" || strings.HasPrefix(name, "runtime.") {
			linalgOrRuntime += v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
	if linalgOrRuntime < 0.9 {
		t.Errorf("linalg + runtime.* = %.3f of a linalg-only loop, want >= 0.9: %v", linalgOrRuntime, shares)
	}
}

func TestParseProfileRejectsMalformed(t *testing.T) {
	gz := func(b []byte) []byte {
		var out bytes.Buffer
		zw := gzip.NewWriter(&out)
		zw.Write(b)
		zw.Close()
		return out.Bytes()
	}
	for name, in := range map[string][]byte{
		"not gzip":        []byte("profile"),
		"truncated key":   gz([]byte{0x80}),
		"short field":     gz([]byte{0x12, 0x05, 0x08}),
		"bad wire type":   gz([]byte{0x0f}),
		"truncated fixed": gz([]byte{0x09, 0x01}),
		"bad length":      gz([]byte{0x12, 0x02, 0x0a, 0x80}),
		"bad packed":      gz([]byte{0x12, 0x03, 0x0a, 0x01, 0x80}),
	} {
		if _, err := parseProfile(in); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	if _, err := cpuShares(gz(nil)); err == nil {
		t.Error("an empty profile produced shares")
	}
}
