package classad

import (
	"testing"
	"testing/quick"
)

func eval(t *testing.T, src string, my, target Ad) Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e.Eval(my, target)
}

func wantBool(t *testing.T, src string, my, target Ad, want bool) {
	t.Helper()
	v := eval(t, src, my, target)
	b, ok := v.AsBool()
	if !ok {
		t.Fatalf("%q evaluated to %v, want bool %v", src, v, want)
	}
	if b != want {
		t.Fatalf("%q = %v, want %v", src, b, want)
	}
}

func wantNumber(t *testing.T, src string, want float64) {
	t.Helper()
	v := eval(t, src, nil, nil)
	f, ok := v.AsNumber()
	if !ok || f != want {
		t.Fatalf("%q = %v, want %v", src, v, want)
	}
}

func TestArithmetic(t *testing.T) {
	wantNumber(t, "1 + 2 * 3", 7)
	wantNumber(t, "(1 + 2) * 3", 9)
	wantNumber(t, "10 / 4", 2.5)
	wantNumber(t, "-5 + 2", -3)
	wantNumber(t, "2e3 + 0.5", 2000.5)
}

func TestDivisionByZeroIsUndefined(t *testing.T) {
	if v := eval(t, "1 / 0", nil, nil); !v.IsUndefined() {
		t.Fatalf("1/0 = %v, want undefined", v)
	}
}

func TestComparisons(t *testing.T) {
	wantBool(t, "3 > 2", nil, nil, true)
	wantBool(t, "3 <= 2", nil, nil, false)
	wantBool(t, "2 == 2.0", nil, nil, true)
	wantBool(t, "2 != 3", nil, nil, true)
	wantBool(t, `"abc" == "ABC"`, nil, nil, true) // case-insensitive, as HTCondor
	wantBool(t, `"abc" < "abd"`, nil, nil, true)
}

func TestBooleanConnectives(t *testing.T) {
	wantBool(t, "true && false", nil, nil, false)
	wantBool(t, "true || false", nil, nil, true)
	wantBool(t, "!false", nil, nil, true)
	wantBool(t, "true && (false || true)", nil, nil, true)
}

func TestThreeValuedLogic(t *testing.T) {
	// false && undefined == false; true || undefined == true.
	wantBool(t, "false && NoSuchAttr", nil, nil, false)
	wantBool(t, "true || NoSuchAttr", nil, nil, true)
	if v := eval(t, "true && NoSuchAttr", nil, nil); !v.IsUndefined() {
		t.Fatalf("true && undefined = %v", v)
	}
	if v := eval(t, "false || NoSuchAttr", nil, nil); !v.IsUndefined() {
		t.Fatalf("false || undefined = %v", v)
	}
	if v := eval(t, "NoSuchAttr + 1", nil, nil); !v.IsUndefined() {
		t.Fatalf("undefined + 1 = %v", v)
	}
	if v := eval(t, "!NoSuchAttr", nil, nil); !v.IsUndefined() {
		t.Fatalf("!undefined = %v", v)
	}
}

func TestAttributeResolution(t *testing.T) {
	my := Ad{"RequestCpus": Number(4), "JobUser": String("fdw")}
	target := Ad{"Cpus": Number(8), "Memory": Number(16384)}
	wantBool(t, "Cpus >= RequestCpus", my, target, true)
	wantBool(t, "MY.RequestCpus == 4", my, target, true)
	wantBool(t, "TARGET.Memory >= 8192", my, target, true)
	// Bare names prefer MY over TARGET.
	my2 := Ad{"X": Number(1)}
	target2 := Ad{"X": Number(2)}
	wantBool(t, "X == 1", my2, target2, true)
}

func TestCaseInsensitiveLookup(t *testing.T) {
	my := Ad{"RequestMemory": Number(2048)}
	wantBool(t, "requestmemory == 2048", my, nil, true)
	wantBool(t, "REQUESTMEMORY == 2048", my, nil, true)
}

func TestRealisticRequirements(t *testing.T) {
	// The kind of Requirements expression FDW submit files carry.
	req := `(TARGET.Cpus >= MY.RequestCpus) && (TARGET.Memory >= MY.RequestMemory) && (TARGET.HasSingularity == true)`
	job := Ad{"RequestCpus": Number(4), "RequestMemory": Number(8192)}
	machine := Ad{"Cpus": Number(8), "Memory": Number(16384), "HasSingularity": Bool(true)}
	ok, err := EvalBool(req, job, machine)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("matching machine rejected")
	}
	weak := Ad{"Cpus": Number(2), "Memory": Number(16384), "HasSingularity": Bool(true)}
	ok, err = EvalBool(req, job, weak)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("undersized machine accepted")
	}
	// Machine without the HasSingularity attribute: UNDEFINED == true is
	// UNDEFINED; EvalBool maps that to false.
	bare := Ad{"Cpus": Number(8), "Memory": Number(16384)}
	ok, err = EvalBool(req, job, bare)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("machine lacking attribute accepted")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "1 +", "(1", `"unterminated`, "1 2", "&& 3", "@", "1..2",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestLiteralsKeywords(t *testing.T) {
	wantBool(t, "TRUE", nil, nil, true)
	wantBool(t, "False", nil, nil, false)
	if v := eval(t, "UNDEFINED", nil, nil); !v.IsUndefined() {
		t.Fatal("UNDEFINED keyword not undefined")
	}
}

func TestValueString(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Number(2.5), "2.5"},
		{String("hi"), `"hi"`},
		{Undefined, "undefined"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Fatalf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	v := eval(t, `"a\"b"`, nil, nil)
	s, ok := v.AsString()
	if !ok || s != `a"b` {
		t.Fatalf("escaped string = %v", v)
	}
}

func TestExprStringRoundTrips(t *testing.T) {
	// Property: rendering a parsed expression re-parses to the same value.
	srcs := []string{
		"1 + 2 * 3",
		"(Cpus >= 4) && (Memory >= 2048 || true)",
		`"x" == "y"`,
		"!(3 < 4)",
	}
	my := Ad{"Cpus": Number(8), "Memory": Number(4096)}
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-parse of %q (%q): %v", src, e1.String(), err)
		}
		if e1.Eval(my, nil).String() != e2.Eval(my, nil).String() {
			t.Fatalf("round trip changed value for %q", src)
		}
	}
}

func TestPropertyNumericComparisonConsistency(t *testing.T) {
	f := func(a, b int16) bool {
		my := Ad{"A": Number(float64(a)), "B": Number(float64(b))}
		lt, _ := eval(t, "A < B", my, nil).AsBool()
		ge, _ := eval(t, "A >= B", my, nil).AsBool()
		return lt != ge
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyArithmeticMatchesGo(t *testing.T) {
	f := func(a, b int8) bool {
		my := Ad{"A": Number(float64(a)), "B": Number(float64(b))}
		v := eval(t, "A * B + A - B", my, nil)
		got, ok := v.AsNumber()
		want := float64(a)*float64(b) + float64(a) - float64(b)
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnaryMinusOnAttr(t *testing.T) {
	my := Ad{"X": Number(5)}
	wantBool(t, "-X == -5", my, nil, true)
}

func TestBoolAsNumber(t *testing.T) {
	wantNumber(t, "true + true", 2)
}

func TestParseNeverPanics(t *testing.T) {
	// Property: Parse either succeeds or returns an error — it must not
	// panic on arbitrary input, and successful parses must evaluate
	// without panicking too.
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		e, err := Parse(src)
		if err == nil && e != nil {
			_ = e.Eval(Ad{"X": Number(1)}, Ad{"Y": String("v")})
			_ = e.String()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseStressOperatorsSoup(t *testing.T) {
	// Dense operator sequences exercise the parser's error paths.
	soups := []string{
		"1+2*3-4/5<6>=7&&8||!9",
		"((((((1))))))",
		"!!!!true",
		"- - - 3",
		"a.b.c.d == e.f.g",
		`"x" < 3 && undefined >= "y"`,
	}
	for _, src := range soups {
		e, err := Parse(src)
		if err != nil {
			continue // rejection is fine; panics are not
		}
		_ = e.Eval(nil, nil)
	}
}

func TestLookupDuplicateCaseVariantKeys(t *testing.T) {
	// Pathological but legal: one attribute spelled three ways. An
	// exact-case match must win, and with no exact match the
	// lexicographically smallest key must win — on every call, so
	// matchmaking cannot depend on map iteration order.
	ad := Ad{"CPUs": Number(1), "CPUS": Number(2), "cpus": Number(3)}
	for i := 0; i < 100; i++ {
		v, ok := ad.Lookup("CPUs")
		if f, _ := v.AsNumber(); !ok || f != 1 {
			t.Fatalf("iteration %d: exact-case Lookup(CPUs) = %v, %v; want 1", i, v, ok)
		}
		// No exact match: "CPUS" < "CPUs" < "cpus" in byte order.
		v, ok = ad.Lookup("Cpus")
		if f, _ := v.AsNumber(); !ok || f != 2 {
			t.Fatalf("iteration %d: Lookup(Cpus) = %v, %v; want 2 (smallest key CPUS)", i, v, ok)
		}
	}
}

func TestLookupMissing(t *testing.T) {
	ad := Ad{"X": Number(1)}
	if v, ok := ad.Lookup("Y"); ok || !v.IsUndefined() {
		t.Fatalf("Lookup(Y) = %v, %v; want Undefined, false", v, ok)
	}
	var nilAd Ad
	if v, ok := nilAd.Lookup("X"); ok || !v.IsUndefined() {
		t.Fatalf("nil ad Lookup = %v, %v; want Undefined, false", v, ok)
	}
}

func TestMoreMalformedInputs(t *testing.T) {
	for _, src := range []string{
		"1e+",       // exponent with no digits
		"3 =? 4",    // lexes as a two-char op the parser rejects
		"x ||",      // dangling connective
		"--",        // unary minus with no operand
		"(\t",       // open paren then EOF
		"\"a\\",     // escape at end of input
		"1.2.3",     // number with two dots
		"foo bar",   // two idents with no operator
		"# comment", // unsupported character
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestEvalBoolPropagatesParseError(t *testing.T) {
	if _, err := EvalBool("((", nil, nil); err == nil {
		t.Fatal("EvalBool on malformed input returned nil error")
	}
	// UNDEFINED maps to false, not an error.
	ok, err := EvalBool("NoSuchAttr > 4", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("UNDEFINED comparison evaluated true")
	}
}
