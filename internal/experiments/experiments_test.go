package experiments

import (
	"context"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

// runAndCheck runs an experiment and asserts basic table shape plus a PASS
// verdict where the experiment emits one.
func runAndCheck(t *testing.T, name string, f func(context.Context, Config) (*Table, error), wantVerdict bool) *Table {
	t.Helper()
	tab, err := f(context.Background(), quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
		t.Fatalf("%s: empty table", name)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("%s: row width %d != %d columns", name, len(row), len(tab.Columns))
		}
	}
	out := tab.Render()
	if !strings.Contains(out, tab.ID) || !strings.Contains(out, "claim:") {
		t.Fatalf("%s: render incomplete:\n%s", name, out)
	}
	if wantVerdict {
		verdict := strings.Join(tab.Notes, "\n")
		if !strings.Contains(verdict, "VERDICT: PASS") {
			t.Fatalf("%s: no PASS verdict:\n%s", name, out)
		}
	}
	t.Logf("\n%s", out)
	return tab
}

func TestE1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("E1 runs many CAD builds")
	}
	runAndCheck(t, "E1", E1, true)
}

func TestE2Quick(t *testing.T) { runAndCheck(t, "E2", E2, true) }

func TestE3Quick(t *testing.T) { runAndCheck(t, "E3", E3, false) }

func TestE4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("E4 runs several CAD builds")
	}
	// E4's verdict depends on wall-clock speedups, which are robust (full
	// design is 3x the module plus unconstrained search space) but still
	// timing; assert shape and log the verdict rather than flake.
	tab := runAndCheck(t, "E4", E4, false)
	t.Log(strings.Join(tab.Notes, "; "))
}

func TestE5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("E5 runs CAD builds")
	}
	runAndCheck(t, "E5", E5, true)
}

func TestE6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("E6 runs CAD builds")
	}
	tab := runAndCheck(t, "E6", E6, false)
	for _, row := range tab.Rows {
		if row[len(row)-1] != "PASS" {
			t.Fatalf("tool %s failed the functional check: %v", row[0], row)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "EX", Title: "demo", Claim: "c", Columns: []string{"a", "bb"}}
	tab.AddRow(1, "xyz")
	tab.AddRow(2.5, "w")
	tab.Note("n=%d", 7)
	out := tab.Render()
	for _, want := range []string{"EX", "demo", "claim: c", "xyz", "2.5", "note: n=7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEnumerate(t *testing.T) {
	combos := enumerate(Fig4Scenario())
	if len(combos) != 36 {
		t.Fatalf("Figure 4 scenario has %d combinations, want 36", len(combos))
	}
	for _, combo := range combos {
		if len(combo) != 3 {
			t.Fatalf("combo with %d instances", len(combo))
		}
	}
	// All combos distinct.
	seen := map[string]bool{}
	for _, combo := range combos {
		key := ""
		for _, inst := range combo {
			key += inst.Gen.Name() + "|"
		}
		if seen[key] {
			t.Fatalf("duplicate combination %s", key)
		}
		seen[key] = true
	}
}

func TestFig4InterfacesCompatible(t *testing.T) {
	for _, rs := range Fig4Scenario() {
		for _, v := range rs.Variants[1:] {
			if v.NumInputs() != rs.Variants[0].NumInputs() || v.NumOutputs() != rs.Variants[0].NumOutputs() {
				t.Errorf("region %s: variant %s interface differs from %s",
					rs.Prefix, v.Name(), rs.Variants[0].Name())
			}
		}
	}
}

func TestE7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("E7 runs CAD builds")
	}
	runAndCheck(t, "E7", E7, true)
}

func TestE8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("E8 runs CAD builds")
	}
	tab := runAndCheck(t, "E8", E8, false)
	t.Log(strings.Join(tab.Notes, "; "))
}

func TestE9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("E9 runs CAD builds")
	}
	tab := runAndCheck(t, "E9", E9, false)
	t.Log(strings.Join(tab.Notes, "; "))
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Part != "XCV50" || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	c2 := Config{Part: "XCV100", Seed: 7}.withDefaults()
	if c2.Part != "XCV100" || c2.Seed != 7 {
		t.Fatalf("explicit config overridden: %+v", c2)
	}
	// Unknown part propagates as an error from part-resolving experiments.
	if _, err := E5(context.Background(), Config{Part: "XCV9", Quick: true}); err == nil {
		t.Fatal("unknown part accepted")
	}
}

func TestE10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("E10 runs CAD builds")
	}
	// E10's verdict compares wall-clock latencies; assert shape plus the
	// hard invariants (byte identity, all edits spliced) and log the rest.
	tab := runAndCheck(t, "E10", E10, false)
	all := strings.Join(tab.Notes, "\n")
	if strings.Contains(all, "VERDICT: FAIL") {
		t.Fatalf("E10 failed a hard invariant:\n%s", all)
	}
	t.Log(all)
}
