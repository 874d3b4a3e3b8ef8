package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

func smokeEpisode(t *testing.T, name string, seed int64) *episode {
	t.Helper()
	ep, err := runEpisode(smoke(specs[name]), seed, hooks{})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return ep
}

// TestSmokeWorkloads runs each workload at smoke size and checks its
// outputs.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			ep := smokeEpisode(t, name, 1)
			if ep.attempted == 0 || ep.net.RxFrames == 0 {
				t.Fatalf("nothing happened: %s", ep.digest)
			}
			if ep.wrong != 0 {
				t.Errorf("%d incorrect outputs: %s", ep.wrong, ep.digest)
			}
			if name != "switch" && ep.failed != 0 {
				t.Errorf("%d of %d operations failed: %s", ep.failed, ep.attempted, ep.digest)
			}
			if len(ep.switches) == 0 || len(ep.toggles) == 0 {
				t.Errorf("no timed reconfiguration: %d switches, %d toggles", len(ep.switches), len(ep.toggles))
			}
		})
	}
}

// TestDigestFollowsSeed: one seed repeats its digest exactly, another
// seed changes it.
func TestDigestFollowsSeed(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, b := smokeEpisode(t, name, 7), smokeEpisode(t, name, 7)
			if a.digest != b.digest {
				t.Errorf("seed 7 does not repeat:\n%s\n%s", a.digest, b.digest)
			}
			if c := smokeEpisode(t, name, 8); c.digest == a.digest {
				t.Errorf("seeds 7 and 8 give the same digest: %s", a.digest)
			}
		})
	}
}

// TestLayerMapCoversLinkedPackages lists the packages the benchmark links
// and requires each manetkit one to have a layer, so a new package cannot
// fall silently into "other".
func TestLayerMapCoversLinkedPackages(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Skipf("go list unavailable: %v", err)
	}
	known := map[string]bool{callerLayer: true}
	for _, l := range layers {
		known[l] = true
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg != "manetkit" && !strings.HasPrefix(pkg, "manetkit/") {
			continue
		}
		layer, ok := packageLayer[pkg]
		if !ok {
			t.Errorf("package %s has no layer in packageLayer", pkg)
		} else if !known[layer] {
			t.Errorf("package %s maps to unknown layer %q", pkg, layer)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		cpu   bool
		want  string
	}{
		{[]string{"manetkit/internal/packetbb.decodeMessage"}, true, "packetbb"},
		{[]string{"runtime.mapaccess2", "manetkit/internal/mnet.Prefix.Contains", "manetkit/internal/route.(*FIB).Lookup"}, true, "route"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "manetkit/internal/core.(*Manager).emit"}, true, "runtime"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "manetkit/internal/core.(*Manager).emit"}, false, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, true, "runtime"},
		{[]string{"sort.insertionSort[...]", "slices.SortFunc[go.shape.struct { manetkit/internal/mnet.Addr }]", "manetkit/internal/olsr.(*State).ComputeRoutes"}, true, "olsr"},
		{[]string{"main.(*traffic).send", "manetkit/internal/vclock.(*Virtual).runLocked"}, true, "other"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, true, "other"},
	}
	for _, c := range cases {
		if got, _ := classify(c.stack, c.cpu); got != c.want {
			t.Errorf("classify(%v, cpu=%v) = %s, want %s", c.stack, c.cpu, got, c.want)
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s not reported", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s reported in %s, BENCHMARK.json says %s", what, m.Name, g.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: reported but not in BENCHMARK.json: %v", what, extra)
	}
}

// TestReportsMatchBenchmarkFile runs the untraced and traced modes at smoke
// size and checks they report exactly the metrics BENCHMARK.json declares.
func TestReportsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, name := range workloadNames() {
		sp := smoke(specs[name])
		res, err := measure(sp, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s untraced: not correct: %v", name, res.notes)
		}
		sameMetrics(t, name+" untraced", res.Metrics, bf.EndToEnd)
		res, err = ledger(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s traced: not correct: %v", name, res.notes)
		}
		sameMetrics(t, name+" traced", res.Metrics, bf.PerLayer)
	}
}

// TestCheckReportsOneEpisode: the reported operations are one episode's,
// however many episodes ran, and episodes whose counts differ make the run
// incorrect.
func TestCheckReportsOneEpisode(t *testing.T) {
	ep := func(attempted, failed int) *episode {
		return &episode{attempted: attempted, failed: failed, digest: "d"}
	}
	for _, n := range []int{1, 3, 7} {
		var eps []*episode
		for i := 0; i < n; i++ {
			eps = append(eps, ep(3000, 93))
		}
		res := &result{Correct: true}
		check(res, eps)
		if !res.Correct || res.Attempted != 3000 || res.Failed != 93 {
			t.Errorf("%d episodes: correct %v, %d attempted, %d failed; want true, 3000, 93", n, res.Correct, res.Attempted, res.Failed)
		}
	}
	res := &result{Correct: true}
	check(res, []*episode{ep(3000, 93), ep(3000, 94)})
	if res.Correct {
		t.Errorf("episodes with different failure counts reported correct")
	}
}

// TestRunRejectsBadFlags: a bad invocation exits non-zero and prints no
// result.
func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
