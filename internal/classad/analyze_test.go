package classad

import (
	"reflect"
	"testing"
)

func TestReferencedAttrs(t *testing.T) {
	cases := []struct {
		src string
		my  []string
	}{
		{`true`, nil},
		{`MY.Owner == "dag1"`, []string{"owner"}},
		{`TARGET.GLIDEIN_Site == "unl"`, nil},
		{`RequestCpus <= Cpus`, []string{"cpus", "requestcpus"}},
		{
			`MY.Owner != "x" && (TARGET.Memory > 1024 || HasSingularity)`,
			[]string{"hassingularity", "owner"},
		},
		{`-(MY.RequestDisk) < 10`, []string{"requestdisk"}},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if my := ReferencedAttrs(e); !reflect.DeepEqual(my, c.my) {
			t.Fatalf("%s: got %v, want %v", c.src, my, c.my)
		}
	}
}
