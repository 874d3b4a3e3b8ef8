package analysis_test

import (
	"strings"
	"testing"

	"manetkit/internal/analysis"
	"manetkit/internal/analysis/analysistest"
)

func TestDeterminismFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "determ", analysis.Determinism)
}

func TestDeterminismSkipsVclock(t *testing.T) {
	// The facade itself grounds Clock in package time: zero diagnostics.
	analysistest.Run(t, "testdata", "vclock", analysis.Determinism)
}

func TestLockemitFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "core", analysis.Lockemit)
}

func TestLockemitFromImportingPackage(t *testing.T) {
	analysistest.Run(t, "testdata", "lockuser", analysis.Lockemit)
}

func TestCtxleakFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "ctxleakfix", analysis.Ctxleak)
}

func TestHotallocFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "hotallocfix", analysis.Hotalloc)
}

func TestAtomicstatsFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "atomicfix", analysis.Atomicstats)
}

func TestBlockingpubFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "telemetry", analysis.Blockingpub)
}

func TestMaporderFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "maporderfix", analysis.Maporder)
}

// TestCrossPackageFacts drives factuser, whose transitive lockemit and
// hotalloc diagnostics exist only if factlib's fact summaries crossed the
// package boundary (the analysistest importer mirrors mkvet's PackageVetx
// hand-off).
func TestCrossPackageFacts(t *testing.T) {
	analysistest.Run(t, "testdata", "factuser", analysis.Lockemit, analysis.Hotalloc)
}

// TestExportedFactSummaries asserts on the summaries themselves: what a
// package writes into its fact file for importers.
func TestExportedFactSummaries(t *testing.T) {
	lib := analysistest.Facts(t, "testdata", "factlib")
	notify, ok := lib.Lookup("factlib.Notify")
	if !ok || len(notify.Emit) == 0 || notify.Emit[len(notify.Emit)-1] != "(core.Env).Emit" {
		t.Errorf("factlib.Notify summary = %+v, want Emit path ending in (core.Env).Emit", notify)
	}
	grow, ok := lib.Lookup("factlib.Grow")
	if !ok || len(grow.Alloc) == 0 {
		t.Errorf("factlib.Grow summary = %+v, want an Alloc path", grow)
	}

	mo := analysistest.Facts(t, "testdata", "maporderfix")
	for _, fn := range []string{"maporderfix.unsortedKeys", "maporderfix.wrappedKeys"} {
		if f, ok := mo.Lookup(fn); !ok || !f.MapOrdered {
			t.Errorf("%s summary = %+v, want MapOrdered", fn, f)
		}
	}
	if f, ok := mo.Lookup("maporderfix.insertionKeys"); ok && f.MapOrdered {
		t.Errorf("maporderfix.insertionKeys summary = %+v: audited append must not taint the result", f)
	}
	if f, ok := mo.Lookup("maporderfix.dump"); !ok || len(f.Sink) == 0 {
		t.Errorf("maporderfix.dump summary = %+v, want a Sink path", f)
	}
}

func TestMalformedDirectivesReported(t *testing.T) {
	fset, files, pkg, info := analysistest.Load(t, "testdata", "directivefix")
	diags, err := analysis.Run(fset, files, pkg, info, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 mkdirective findings: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "mkdirective" {
			t.Fatalf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
		if !strings.Contains(d.Message, "malformed //mk:allow") {
			t.Fatalf("unexpected message: %s", d)
		}
	}
}

func TestSuiteShape(t *testing.T) {
	all := analysis.All()
	if len(all) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v is missing a name, doc or run function", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if analysis.ByName(a.Name) != a {
			t.Fatalf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if analysis.ByName("nope") != nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}
