package classad

import (
	"reflect"
	"testing"
)

func TestParseCachedSharesAndMatchesParse(t *testing.T) {
	src := `(TARGET.GLIDEIN_Site == "uchicago") && RequestCpus <= Cpus`
	e1, err := ParseCached(src)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ParseCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("ParseCached returned distinct exprs for identical source")
	}
	direct, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if e1.String() != direct.String() {
		t.Fatalf("cached parse %q differs from direct parse %q", e1, direct)
	}
}

func TestParseCachedCachesErrors(t *testing.T) {
	src := "((("
	if _, err := ParseCached(src); err == nil {
		t.Fatal("malformed expression accepted")
	}
	if _, err := ParseCached(src); err == nil {
		t.Fatal("cached malformed expression accepted on second lookup")
	}
}

func TestEvalBoolCachedMatchesEvalBool(t *testing.T) {
	my := Ad{"RequestCpus": Number(4), "Owner": String("dag1")}
	target := Ad{"Cpus": Number(8), "GLIDEIN_Site": String("sdsc")}
	for _, src := range []string{
		`RequestCpus <= Cpus`,
		`TARGET.GLIDEIN_Site == "sdsc"`,
		`TARGET.GLIDEIN_Site == "unl"`,
		`NoSuchAttr == 1`,
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := e.Eval(my, target).AsBool()
		want := b && ok
		got, err := EvalBoolCached(src, my, target)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: cached %v, direct %v", src, got, want)
		}
	}
}

func TestReferencedAttrs(t *testing.T) {
	cases := []struct {
		src        string
		my, target []string
	}{
		{`true`, nil, nil},
		{`MY.Owner == "dag1"`, []string{"owner"}, nil},
		{`TARGET.GLIDEIN_Site == "unl"`, nil, []string{"glidein_site"}},
		{`RequestCpus <= Cpus`, []string{"cpus", "requestcpus"}, []string{"cpus", "requestcpus"}},
		{
			`MY.Owner != "x" && (TARGET.Memory > 1024 || HasSingularity)`,
			[]string{"hassingularity", "owner"},
			[]string{"hassingularity", "memory"},
		},
		{`-(MY.RequestDisk) < 10`, []string{"requestdisk"}, nil},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		my, target := ReferencedAttrs(e)
		if !reflect.DeepEqual(my, c.my) || !reflect.DeepEqual(target, c.target) {
			t.Fatalf("%s: got my=%v target=%v, want my=%v target=%v",
				c.src, my, target, c.my, c.target)
		}
	}
}
