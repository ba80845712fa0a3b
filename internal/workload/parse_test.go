package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestParseKinds(t *testing.T) {
	cases := []struct {
		spec  string
		check func(t *testing.T, wl Workload)
	}{
		{"triad:18", func(t *testing.T, wl Workload) {
			tr, ok := wl.(StreamTriad)
			if !ok {
				t.Fatalf("got %T", wl)
			}
			if tr.Ranks != 18 || tr.Steps != DefaultSteps || tr.WorkingSet != 1.2e9 || tr.MessageBytes != 2_000_000 {
				t.Errorf("triad = %+v", tr)
			}
		}},
		{"triad:6:steps=9:ws=2.4e9:msg=1000", func(t *testing.T, wl Workload) {
			tr := wl.(StreamTriad)
			if tr.Steps != 9 || tr.WorkingSet != 2.4e9 || tr.MessageBytes != 1000 {
				t.Errorf("triad = %+v", tr)
			}
		}},
		{"lbm:10:cells=90:steps=7", func(t *testing.T, wl Workload) {
			l := wl.(LBM)
			if l.Ranks != 10 || l.CellsPerDim != 90 || l.Steps != 7 {
				t.Errorf("lbm = %+v", l)
			}
		}},
		{"lbm:4x4:cells=50", func(t *testing.T, wl Workload) {
			l := wl.(LBM)
			if l.Ranks != 16 {
				t.Errorf("ranks = %d, want 16", l.Ranks)
			}
			g, ok := l.Topo.(topology.Grid)
			if !ok {
				t.Fatalf("topo = %T, want torus grid", l.Topo)
			}
			if g.Ranks() != 16 {
				t.Errorf("grid ranks = %d", g.Ranks())
			}
		}},
		{"divide:16:phase=2ms", func(t *testing.T, wl Workload) {
			d := wl.(DivideKernel)
			if d.Ranks != 16 || d.PhaseTime != sim.Milli(2) {
				t.Errorf("divide = %+v", d)
			}
		}},
		{"bulk:12:periodic:uni:texec=2ms:bytes=512:steps=5", func(t *testing.T, wl Workload) {
			b := wl.(BulkSync)
			if b.Steps != 5 || b.Texec != sim.Milli(2) || b.Bytes != 512 {
				t.Errorf("bulk = %+v", b)
			}
			c, ok := b.Topo.(topology.Chain)
			if !ok || c.N != 12 || c.Dir != topology.Unidirectional || c.Bound != topology.Periodic {
				t.Errorf("bulk topo = %+v", b.Topo)
			}
		}},
		{"bulk:6x6:periodic:d=2", func(t *testing.T, wl Workload) {
			b := wl.(BulkSync)
			g, ok := b.Topo.(topology.Grid)
			if !ok || g.Ranks() != 36 || g.D != 2 {
				t.Errorf("bulk topo = %+v", b.Topo)
			}
		}},
	}
	for _, c := range cases {
		wl, err := Parse(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		c.check(t, wl)
		if err := wl.Validate(); err != nil {
			t.Errorf("%s: parsed workload invalid: %v", c.spec, err)
		}
	}
}

func TestParseWithDefaults(t *testing.T) {
	wl, err := ParseWith("divide:8", Defaults{Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if d := wl.(DivideKernel); d.Steps != 50 {
		t.Errorf("steps = %d, want 50 from defaults", d.Steps)
	}
	// An explicit steps= option beats the caller's default.
	wl, err = ParseWith("divide:8:steps=3", Defaults{Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if d := wl.(DivideKernel); d.Steps != 3 {
		t.Errorf("steps = %d, want 3 from the spec", d.Steps)
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	bad := []string{
		"",
		"triad",
		"warp:18",
		"triad:zero",
		"triad:-3",
		"triad:18:ws=-1",
		"triad:18:ws=NaN",
		"triad:18:ws=Inf",
		"triad:18:cells=90", // lbm-only option
		"lbm:10:cells=0",
		"lbm:4x0",
		"divide:8:phase=nope",
		"divide:8:phase=-3ms",
		"bulk:12:bytes=0",
		"bulk:12:warp",
		"triad:2", // needs >= 3 ranks
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}

func TestStringRoundTripsThroughParse(t *testing.T) {
	for _, spec := range []string{
		"triad:18", "divide:16", "lbm:10:cells=302", "lbm:4x4:cells=50", "triad:3x6",
		// Non-default numeric options must survive the round trip too.
		"triad:6:steps=9:ws=2.4e9:msg=1000",
		"divide:5:steps=40:phase=750us",
		"lbm:8:steps=11:cells=64",
		"bulk:24:steps=26:texec=5ms:bytes=4096",
		"bulk:5x5:d=2:periodic:steps=7",
	} {
		wl, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := wl.(interface{ String() string }).String()
		if !strings.HasPrefix(s, strings.SplitN(spec, ":", 2)[0]+":") {
			t.Errorf("String() = %q for %q", s, spec)
		}
		back, err := Parse(s)
		if err != nil {
			t.Errorf("String() %q of %q does not re-parse: %v", s, spec, err)
			continue
		}
		if !reflect.DeepEqual(back, wl) {
			t.Errorf("round trip of %q not value-exact: %#v vs %#v", spec, wl, back)
		}
		if back.(interface{ String() string }).String() != s {
			t.Errorf("re-parse of %q changed the label to %q", s, back)
		}
	}
}

// TestStringRendersNonDefaultOptions pins the exact labels: defaults
// are omitted, everything else is spelled out in the Parse syntax.
func TestStringRendersNonDefaultOptions(t *testing.T) {
	for spec, want := range map[string]string{
		"triad:18":                          "triad:18",
		"triad:18:ws=1.2e9:msg=2000000":     "triad:18", // explicit defaults fold away
		"triad:6:steps=9:ws=2.4e9:msg=1000": "triad:6:steps=9:ws=2.4e+09:msg=1000",
		"divide:5:steps=40:phase=750us":     "divide:5:steps=40:phase=750µs",
		"lbm:8:steps=11":                    "lbm:8:steps=11:cells=302",
		"bulk:24:steps=26":                  "bulk:24:steps=26",
		"bulk:12:texec=5ms:bytes=4096":      "bulk:12:texec=5ms:bytes=4096",
	} {
		wl, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := wl.(interface{ String() string }).String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", spec, got, want)
		}
	}
}
