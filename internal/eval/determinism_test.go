package eval

// The determinism regression: a campaign is a pure function of its config.
// Same seed, same cell ⇒ byte-identical JSON. This is what makes the
// committed golden meaningful — any nondeterminism smuggled into the stack
// (wall-clock reads, map-order dependence, unseeded randomness) breaks
// these tests before it can turn the golden gate flaky.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
)

func smallConfig() Config {
	return Config{
		Protos:    []string{"aodv", "olsr"},
		Densities: []string{"sparse"},
		Loads:     []string{"cbr"},
		Seeds:     []int64{1, 2},
	}
}

func TestCampaignByteDeterminism(t *testing.T) {
	encode := func() []byte {
		t.Helper()
		rep, err := Run(smallConfig())
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	first, second := encode(), encode()
	if !bytes.Equal(first, second) {
		t.Fatalf("same config, different reports:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestCampaignDeterminismAcrossGOMAXPROCS re-runs the campaign with the
// scheduler pinned to one CPU and compares against the parallel run: the
// gate that campaign metrics — delivery ratios, latency percentiles,
// violation strings — cannot depend on how many CPUs the host gave us.
func TestCampaignDeterminismAcrossGOMAXPROCS(t *testing.T) {
	encode := func() []byte {
		t.Helper()
		rep, err := Run(smallConfig())
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	prev := runtime.GOMAXPROCS(1)
	serial := encode()
	runtime.GOMAXPROCS(prev)
	parallel := encode()
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("campaign diverged across GOMAXPROCS 1 vs %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
			runtime.GOMAXPROCS(0), serial, parallel)
	}
}

// TestCellDeterminism pins the per-cell contract directly: RunCell twice
// with identical arguments returns identical results, violation strings
// and all.
func TestCellDeterminism(t *testing.T) {
	density, err := DensityByName("medium")
	if err != nil {
		t.Fatal(err)
	}
	load, err := LoadByName("burst")
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunCell("dymo", density, load, 5, DefaultWarmup, DefaultCooldown)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCell("dymo", density, load, 5, DefaultWarmup, DefaultCooldown)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same cell, different results:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestSeedsVaryTheRealisation guards the other side of determinism: the
// seed must actually reach the loss process and flow draw, or multi-seed
// confidence bands would be theatre.
func TestSeedsVaryTheRealisation(t *testing.T) {
	density, err := DensityByName("sparse")
	if err != nil {
		t.Fatal(err)
	}
	load, err := LoadByName("cbr")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunCell("aodv", density, load, 1, DefaultWarmup, DefaultCooldown)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell("aodv", density, load, 2, DefaultWarmup, DefaultCooldown)
	if err != nil {
		t.Fatal(err)
	}
	a.Seed, b.Seed = 0, 0
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if bytes.Equal(ja, jb) {
		t.Fatalf("seeds 1 and 2 produced identical cell results: %s", ja)
	}
}

// TestReportRoundTrip: the JSON written by WriteJSON parses back into an
// equal report, so goldens survive the encode/decode cycle exactly.
func TestReportRoundTrip(t *testing.T) {
	rep, err := Run(Config{
		Protos: []string{"zrp"}, Densities: []string{"dense"},
		Loads: []string{"cbr"}, Seeds: []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if got, want := again.String(), func() string {
		var b bytes.Buffer
		rep.WriteJSON(&b)
		return b.String()
	}(); got != want {
		t.Fatalf("round trip changed the report:\n%s\nvs\n%s", got, want)
	}
}
