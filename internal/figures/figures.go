// Package figures regenerates every table and figure of the thesis's
// evaluation. Each experiment is a named generator returning a Table —
// the same rows/series the thesis reports — produced by running the
// analytic model, the cycle-level simulator, the NoC models, the TCO
// model, or the 3D composer, as the thesis did for that artifact.
// EXPERIMENTS.md records paper-vs-measured for each.
package figures

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"scaleout/internal/exp"
)

// Table is a rendered experiment result: a title, column headers, and
// string rows (already formatted to the precision the figure warrants).
type Table struct {
	ID      string
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "  (%s)\n", t.Note)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (headers first), for
// piping into plotting tools. Cells containing a comma, quote, or line
// break are quoted per RFC 4180 — an embedded newline must not split a
// cell across CSV records.
func (t Table) CSV() string {
	var b strings.Builder
	quote := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n\r") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	quote(t.Headers)
	for _, row := range t.Rows {
		quote(row)
	}
	return b.String()
}

// Formats lists the output formats Renderer accepts.
func Formats() []string { return []string{"table", "csv"} }

// Renderer maps an output-format name to its rendering function. The
// soproc CLI (-format) and the soprocd HTTP service (format= query
// parameter) share this lookup, so both reject exactly the same set of
// unknown formats.
func Renderer(format string) (func(Table) string, error) {
	switch format {
	case "table":
		return Table.String, nil
	case "csv":
		return Table.CSV, nil
	default:
		return nil, fmt.Errorf("figures: unknown format %q (want %s)",
			format, strings.Join(Formats(), " or "))
	}
}

// Generator produces one experiment's table. Generators declare their
// sweep points and hand them to the engine carried by ctx (see
// internal/exp): the engine fans points out across its worker pool and
// memoizes them by canonical point key, so the table a generator
// assembles is byte-identical whether the engine runs with one worker
// or many, and configurations shared between figures are simulated once.
type Generator func(ctx context.Context) (Table, error)

// registry maps experiment IDs to generators.
var registry = map[string]Generator{}

func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("figures: duplicate experiment " + id)
	}
	registry[id] = g
}

// IDs returns the registered experiment identifiers in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run generates the experiment with the given ID on the default engine.
func Run(id string) (Table, error) {
	return RunContext(context.Background(), id)
}

// RunContext generates the experiment with the given ID, running its
// sweep points on the engine carried by ctx.
func RunContext(ctx context.Context, id string) (Table, error) {
	g, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("figures: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return g(ctx)
}

// RunAll generates every experiment in ID order on the default engine.
func RunAll() ([]Table, error) {
	return RunAllContext(context.Background())
}

// RunAllContext generates every experiment concurrently and returns the
// tables in ID order. Each generator assembles its table independently
// and deterministically, so concurrency never changes the output; the
// simulation work underneath is bounded by the context engine's worker
// pool. The first failure cancels the remaining experiments.
func RunAllContext(ctx context.Context) ([]Table, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ids := IDs()
	tables := make([]Table, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			tables[i], errs[i] = RunContext(ctx, id)
			if errs[i] != nil {
				cancel()
			}
		}(i, id)
	}
	wg.Wait()
	// Report a genuine failure over a cancellation it caused; both in
	// ID order for determinism.
	if err := exp.FirstError(errs, func(i int, err error) error {
		return fmt.Errorf("%s: %w", ids[i], err)
	}); err != nil {
		return nil, err
	}
	return tables, nil
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f0(x float64) string { return fmt.Sprintf("%.0f", x) }
func itoa(x int) string   { return fmt.Sprintf("%d", x) }
func fg(x float64) string { return fmt.Sprintf("%g", x) }
