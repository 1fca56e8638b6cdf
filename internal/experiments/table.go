// Package experiments regenerates the paper's evaluation: each E* function
// materialises one claim from §2.1/§4.1/Figure 4 as a table (see DESIGN.md's
// experiment index). The functions are deterministic given their config and
// are exercised by cmd/jpgbench and the repository benchmarks.
//
// Every E* function takes the run's context first. An obs.Collector
// attached to it records the run, and a build cache attached with
// cache.With memoizes its CAD stages. Neither changes a result, only what
// gets recorded and the wall-clock, so experiments whose verdicts compare
// measured times (E4/E8/E9) should be given a cold cache or none.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/parallel"
	"repro/internal/xhwif"
)

// Table is one experiment's result.
type Table struct {
	ID    string // e.g. "E1"
	Title string
	// Claim restates what the paper asserts.
	Claim   string
	Columns []string
	Rows    [][]string
	// Notes carries derived findings (e.g. measured ratios) and the
	// pass/fail verdict against the claim's shape.
	Notes []string
}

// AddRow appends a row (stringifying the cells).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a formatted note.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteByte('\n')
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config tunes experiment scale so unit tests stay fast while jpgbench runs
// the full paper-scale configuration.
type Config struct {
	// Part selects the device for CAD-heavy experiments (default XCV50).
	Part string
	// Seed drives all randomised algorithms.
	Seed int64
	// Quick shrinks sweeps for test runs.
	Quick bool
	// Workers bounds the pool the experiments farm their independent CAD
	// runs through: 0 selects parallel.DefaultWorkers() (all cores, or
	// $JPG_WORKERS), 1 forces strictly serial execution. Results are
	// byte-identical for any value — only wall-clock changes.
	Workers int
	// Verify runs the independent bitstream verifier (internal/bitlint)
	// over every full and partial bitstream the experiments emit, failing
	// the run on any error finding. Execution-only: results are
	// byte-identical with it on or off (see flow.Options.Verify).
	Verify bool
	// Faults is a fault-injection spec (see internal/faults.Parse) applied
	// to every board the experiments download to; empty disables injection.
	// With a spec set, boards are wrapped in a ReliableHWIF so the injected
	// faults are retried — experiment *results* stay identical, which is
	// exactly the property CI's faulted run asserts.
	Faults string
	// Retries bounds download attempts per board download (0 selects the
	// xhwif default). Only consulted when the reliability layer is on
	// (Faults set, Retries > 0, or DownloadTimeout > 0).
	Retries int
	// DownloadTimeout bounds one board download end to end, retries
	// included (0 = none).
	DownloadTimeout time.Duration
}

// board builds the HWIF an experiment downloads to: a simulated Board,
// wrapped in a fault injector and a retrying, verifying ReliableHWIF when
// the config asks for them. With no faults and no retry knobs the bare
// board is returned, so the default path is unchanged.
func (c Config) board(p *device.Part) (xhwif.HWIF, error) {
	var hw xhwif.HWIF = xhwif.NewBoard(p)
	if c.Faults != "" {
		spec, err := faults.Parse(c.Faults)
		if err != nil {
			return nil, err
		}
		if spec.Enabled() {
			hw = faults.Wrap(hw, spec)
		}
	}
	if c.Faults != "" || c.Retries > 0 || c.DownloadTimeout > 0 {
		hw = xhwif.NewReliable(hw, xhwif.RetryPolicy{
			MaxAttempts: c.Retries,
			Timeout:     c.DownloadTimeout,
			JitterSeed:  c.Seed,
			Verify:      true,
		})
	}
	return hw, nil
}

// pool renders the config's worker bound as pool options for
// parallel.Map/Do dispatches inside experiments.
func (c Config) pool() []parallel.Option {
	return []parallel.Option{parallel.WithWorkers(c.Workers)}
}

// flowOpts renders the config as flow options for one CAD run with the given
// seed — the single point where experiment knobs reach the flow layer.
// Effort stays 0, which the placer reads as 1.0.
func (c Config) flowOpts(seed int64) flow.Options {
	return flow.Options{Seed: seed, Verify: c.Verify}
}

// genOpts stamps the config's verification knob onto partial-generation
// options — the single point where Config.Verify reaches the core layer.
func (c Config) genOpts(o core.GenerateOptions) core.GenerateOptions {
	o.Verify = c.Verify
	return o
}

// flowOptsEffort is flowOpts with an explicit effort override (used by the
// effort-sweep experiment E8).
func (c Config) flowOptsEffort(seed int64, effort float64) flow.Options {
	o := c.flowOpts(seed)
	o.Effort = effort
	return o
}

// cadPart resolves the config's part for an experiment that times CAD runs
// and builds the part's routing graph first. The graph is built once per
// process, on first use; built here, its cost lands in no table cell.
func (c Config) cadPart() (*device.Part, error) {
	p, err := device.ByName(c.Part)
	if err != nil {
		return nil, err
	}
	device.NewGraph(p)
	return p, nil
}

func (c Config) withDefaults() Config {
	if c.Part == "" {
		c.Part = "XCV50"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
