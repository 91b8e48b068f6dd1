package figures

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// RunAll must regenerate the entire harness without error — the same
// path `soproc -all` takes — and reproduce the committed golden output
// byte for byte in both formats. The golden files are `soproc -all`
// and `soproc -all -format csv` stdout; regenerate them only for a
// deliberate model change, and say why in CHANGES.md:
//
//	go run ./cmd/soproc -all > internal/figures/testdata/all.txt
//	go run ./cmd/soproc -all -format csv > internal/figures/testdata/all.csv
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness regeneration is slow")
	}
	tables, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs()) {
		t.Fatalf("RunAll returned %d tables for %d experiments", len(tables), len(IDs()))
	}
	var table, csv strings.Builder
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty", tab.ID)
		}
		if tab.String() == "" {
			t.Errorf("%s: renders empty", tab.ID)
		}
		table.WriteString(tab.String() + "\n")
		csv.WriteString(tab.CSV() + "\n")
	}
	checkGolden(t, "testdata/all.txt", table.String())
	checkGolden(t, "testdata/all.csv", csv.String())
}

// checkGolden fails the test unless got equals the golden file,
// naming the first differing line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d differs:\n got %q\nwant %q", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", path, len(g), len(w))
}

// ablate.pods: the mid-size pods beat the tiny-pod endpoint and the
// scale-up endpoint does not fit at all.
func TestAblatePodsShape(t *testing.T) {
	tab := runExp(t, "ablate.pods")
	tiny := cell(t, tab, "4c-1MB", "Chip PD")
	mid := cell(t, tab, "16c-4MB", "Chip PD")
	if mid <= tiny {
		t.Errorf("mid-size pod PD %v not above tiny-pod %v", mid, tiny)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "64c-16MB" || last[4] != "does not fit" {
		t.Errorf("scale-up endpoint row: %v", last)
	}
}

// ablate.llc: PD peaks at an interior capacity; tiny LLCs flood the
// memory channels (6 MCs at 0.5MB).
func TestAblateLLCShape(t *testing.T) {
	tab := runExp(t, "ablate.llc")
	tiny := cell(t, tab, "16c-0.5MB", "Chip PD")
	mid := cell(t, tab, "16c-2MB", "Chip PD")
	big := cell(t, tab, "16c-16MB", "Chip PD")
	if !(mid > tiny && mid > big) {
		t.Errorf("PD not peaked in the interior: %v %v %v", tiny, mid, big)
	}
	if mcs := cell(t, tab, "16c-0.5MB", "MCs"); mcs < 5 {
		t.Errorf("0.5MB pods should flood the channels, got %v MCs", mcs)
	}
}

// ablate.mshr: a single MSHR entry costs performance vs the 32-entry
// baseline and shows stalls.
func TestAblateMSHRShape(t *testing.T) {
	tab := runExp(t, "ablate.mshr")
	one := cell(t, tab, "1", "AppIPC")
	full := cell(t, tab, "32", "AppIPC")
	if one >= full {
		t.Errorf("1-entry MSHR IPC %v not below 32-entry %v", one, full)
	}
	if stall := cell(t, tab, "1", "Stall %"); stall <= 0 {
		t.Errorf("1-entry MSHR shows no stalls")
	}
}

// ablate.sharing: snoop rate grows monotonically with sharing intensity
// and is exactly zero with sharing disabled.
func TestAblateSharingShape(t *testing.T) {
	tab := runExp(t, "ablate.sharing")
	prev := -1.0
	for _, row := range tab.Rows {
		snoop, _ := strconv.ParseFloat(row[1], 64)
		if snoop < prev {
			t.Errorf("snoop rate fell at multiplier %s", row[0])
		}
		prev = snoop
	}
	if zero := cell(t, tab, "0", "Snoop %"); zero != 0 {
		t.Errorf("disabled sharing still snooped: %v%%", zero)
	}
}

// ablate.linkwidth: every topology degrades monotonically as links
// narrow, and no topology is hurt at full width by construction.
func TestAblateLinkWidthShape(t *testing.T) {
	tab := runExp(t, "ablate.linkwidth")
	for col := 1; col <= 3; col++ {
		prev := 2.0
		for _, row := range tab.Rows {
			v, _ := strconv.ParseFloat(row[col], 64)
			if v > prev+1e-9 {
				t.Errorf("column %d not monotone at %s bits", col, row[0])
			}
			prev = v
		}
	}
}

// ext.hetero: the frontier includes a genuinely mixed configuration and
// the all-in-order throughput endpoint.
func TestExtHeteroShape(t *testing.T) {
	tab := runExp(t, "ext.hetero")
	var sawMixedFrontier, sawIOEndpoint bool
	for _, row := range tab.Rows {
		a, _ := strconv.Atoi(row[0])
		b, _ := strconv.Atoi(row[1])
		starred := row[len(row)-1] == "*"
		if starred && a > 0 && b > 0 {
			sawMixedFrontier = true
		}
		if starred && a == 0 && b == 3 {
			sawIOEndpoint = true
		}
	}
	if !sawMixedFrontier {
		t.Error("no mixed configuration on the Pareto frontier")
	}
	if !sawIOEndpoint {
		t.Error("all-in-order endpoint missing from the frontier")
	}
}

// ext.dvfs: efficiency declines along the curve; the starred point is
// below nominal frequency.
func TestExtDVFSShape(t *testing.T) {
	tab := runExp(t, "ext.dvfs")
	prev := 1e9
	for _, row := range tab.Rows {
		eff, _ := strconv.ParseFloat(row[3], 64)
		if eff > prev {
			t.Errorf("efficiency rose at %s", row[0])
		}
		prev = eff
		if row[4] == "*" && row[0] >= "2.0GHz" {
			t.Errorf("efficiency sweet spot at %s, expected below nominal", row[0])
		}
	}
}

// ext.structural: emergent L1 rates track the calibrated targets.
func TestExtStructuralShape(t *testing.T) {
	tab := runExp(t, "ext.structural")
	for _, row := range tab.Rows {
		got, _ := strconv.ParseFloat(row[1], 64)
		want, _ := strconv.ParseFloat(row[2], 64)
		if got < want*0.6 || got > want*1.6 {
			t.Errorf("%s: emergent L1I %v vs target %v", row[0], got, want)
		}
	}
}

// ablate.banks: fewer LLC tiles means more contention, never more
// performance.
func TestAblateBanksShape(t *testing.T) {
	tab := runExp(t, "ablate.banks")
	prev := 0.0
	for _, row := range tab.Rows {
		ipc, _ := strconv.ParseFloat(row[2], 64)
		if ipc < prev-1e-9 {
			t.Errorf("performance fell with MORE banks at %s tiles", row[0])
		}
		prev = ipc
	}
}

// ablate.tco: the Scale-Out perf/TCO lead over the conventional design
// survives every electricity-price/PUE combination (thesis: ~7x).
func TestAblateTCOShape(t *testing.T) {
	tab := runExp(t, "ablate.tco")
	for _, row := range tab.Rows {
		for col := 1; col < len(row); col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("cell %q: %v", row[col], err)
			}
			if v < 4 || v > 9 {
				t.Errorf("lead %v at $%s/%s outside the robust window", v, row[0], tab.Headers[col])
			}
		}
	}
}

func TestCSVRendering(t *testing.T) {
	tab := Table{Headers: []string{"A", "B"}}
	tab.AddRow("1", "two, quoted")
	csv := tab.CSV()
	if csv != "A,B\n1,\"two, quoted\"\n" {
		t.Fatalf("CSV rendering: %q", csv)
	}
}

// ext.nocout-scale: at 256 cores both mechanisms cut latency vs the
// baseline; concentration also cuts area.
func TestExtNOCOutScaleShape(t *testing.T) {
	tab := runExp(t, "ext.nocout-scale")
	vals := map[string][2]float64{}
	for _, row := range tab.Rows {
		if row[0] != "256" {
			continue
		}
		lat, _ := strconv.ParseFloat(row[2], 64)
		area, _ := strconv.ParseFloat(row[3], 64)
		vals[row[1]] = [2]float64{lat, area}
	}
	base := vals["baseline"]
	if conc := vals["concentration=2"]; conc[0] >= base[0] || conc[1] >= base[1] {
		t.Errorf("concentration at 256 cores: lat %v area %v vs base %v %v", conc[0], conc[1], base[0], base[1])
	}
	if expr := vals["express links"]; expr[0] >= base[0] {
		t.Errorf("express links at 256 cores: lat %v vs base %v", expr[0], base[0])
	}
}
