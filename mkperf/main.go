// Command mkperf is MANETKit's repository benchmark. It runs one named
// workload through the public API, checks the simulated outputs, and prints
// its metrics:
//
//	bash mkperf/run.sh --workload olsr-grid --seed 1 --seconds 30 --trace 0
//
// Workloads (see workload.go for their sizes):
//
//   - olsr-grid: OLSR+MPR on a 12×12 grid with 1% frame loss, 20 s virtual
//     from cold start through convergence and four TC periods. An operation is one
//     (node, destination) route lookup at the end; a failure is a missing
//     route. Every delivered frame is a broadcast control frame, so the
//     packetbb codec, System CF receive, core dispatch, the olsr/mpr/
//     neighbor handlers and route install do the work.
//   - dymo-data: DYMO on a lossless 32×32 grid carrying 48 CBR flows of 5
//     hops at 50 packets/s, half with 32-byte and half with 1024-byte
//     payloads. An operation is one originated packet; a failure is an
//     undelivered one. Most frames are unicast data forwarded by the System
//     CF data path, which never touches packetbb.
//   - switch: a 10×10 grid whose policy loop moves every node
//     olsr→dymo→aodv→zrp→olsr, toggling OLSR fisheye and DYMO
//     multipath inside their phases, while 8 probe flows run in each
//     phase's settled part. Operations are originated probes and every
//     reconfiguration call; failures are undelivered probes and calls that
//     return an error.
//
// With --trace 0 the command repeats set-up + drive episodes for --seconds
// and reports the end-to-end host metrics: as medians over the episodes,
// setup_s, node_sec_per_sec, allocs_per_rx, alloc_bytes_per_rx and
// live_heap_kb_per_node; and switch_p50_us/switch_p90_us as quantiles of all
// the run's timed per-node protocol switches (olsr-grid and dymo-data switch
// every node once after their drive, at their converged state size). One
// episode's 144 switches in olsr-grid give a p50 that moves ±20% from
// episode to episode, so the samples are pooled. The tail is p90, the
// highest percentile with ten samples beyond it in every workload's
// episode; the traced run reports p99 unbounded.
//
// With --trace 1 it runs one untraced episode, one under a CPU profile and
// one with every allocation profiled, and reports the per-layer ledger:
// profile samples attributed to the package (layer) that owns them, the
// layers' own counters, timed reconfiguration calls and a packetbb replay
// of the run's control frames. METRICS.md lists which end-to-end metric and
// workload each layer metric should move.
//
// Every episode's simulated digest and operation counts must repeat exactly
// for the seed; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics, where attempted and failed
// are one episode's operations, so they depend on the seed alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed before the JSON
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mkperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: olsr-grid, dymo-data or switch")
	seed := fs.Int64("seed", 1, "seed for the medium, flow endpoints and start offsets")
	seconds := fs.Int("seconds", 30, "how long to repeat measured episodes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "mkperf: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = measure(sp, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = ledger(sp, *seed)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mkperf: %s: %v\n", sp.name, err)
		return 1
	}
	for _, line := range res.notes {
		fmt.Fprintln(stdout, line)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "mkperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// minEpisodes is the fewest episodes a measured run reports medians over,
// however short --seconds is.
const minEpisodes = 3

// measure repeats untraced episodes for about budget and reports the
// end-to-end metrics as medians over them.
func measure(sp spec, seed int64, budget time.Duration) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var eps []*episode
	start := time.Now()
	for {
		t0 := time.Now()
		ep, err := runEpisode(sp, seed, hooks{})
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		last := time.Since(t0)
		if len(eps) >= minEpisodes && time.Since(start)+last > budget {
			break
		}
	}
	check(res, eps)

	var setup, nss, apr, bpr, heap []float64
	var switches []time.Duration
	for _, ep := range eps {
		rx := float64(ep.net.RxFrames)
		setup = append(setup, ep.setup().Seconds())
		nss = append(nss, float64(ep.nodes)*ep.virtual.Seconds()/ep.drive.Seconds())
		apr = append(apr, float64(ep.mallocs)/rx)
		bpr = append(bpr, float64(ep.allocBytes)/rx)
		heap = append(heap, float64(ep.liveHeap)/1024/float64(ep.nodes))
		switches = append(switches, ep.switches...)
	}
	switches = sortedDur(switches)
	res.set("setup_s", median(setup), "s")
	res.set("node_sec_per_sec", median(nss), "node-s/s")
	res.set("allocs_per_rx", median(apr), "count")
	res.set("alloc_bytes_per_rx", median(bpr), "B")
	res.set("live_heap_kb_per_node", median(heap), "KiB")
	res.set("switch_p50_us", micros(quantileDur(switches, 0.50)), "us")
	res.set("switch_p90_us", micros(quantileDur(switches, 0.90)), "us")
	res.notef("workload %s seed %d: %d episodes in %.1fs, %d nodes, %s virtual each",
		sp.name, seed, len(eps), time.Since(start).Seconds(), eps[0].nodes, eps[0].virtual)
	res.notef("switch samples: %d per-node protocol switches (%d per episode)", len(switches), len(eps[0].switches))
	for i, ep := range eps {
		res.notef("episode %d: setup %.3fs drive %.3fs, %d rx frames, switch p50 %.0fus", i, ep.setup().Seconds(), ep.drive.Seconds(), ep.net.RxFrames, micros(quantileDur(sortedDur(ep.switches), 0.50)))
	}
	return res, nil
}

// check folds the episodes' operations and output checks into res: every
// digest and operation count must equal the first episode's, and no output
// may be wrong. The reported operations are one episode's: how many
// episodes fit in a run depends on the host, and a sum over them would
// make two runs of one seed report different counts.
func check(res *result, eps []*episode) {
	res.Attempted, res.Failed = eps[0].attempted, eps[0].failed
	for i, ep := range eps {
		if ep.attempted != eps[0].attempted || ep.failed != eps[0].failed {
			res.Correct = false
			res.notef("episode %d: %d attempted, %d failed; episode 0: %d, %d", i, ep.attempted, ep.failed, eps[0].attempted, eps[0].failed)
		}
		if ep.wrong > 0 {
			res.Correct = false
			res.notef("episode %d: %d incorrect outputs", i, ep.wrong)
		}
		if ep.digest != eps[0].digest {
			res.Correct = false
			res.notef("episode %d: digest differs from episode 0:\n  %s\n  %s", i, ep.digest, eps[0].digest)
		}
	}
	res.notef("digest: %s", eps[0].digest)
	res.notef("operations per episode: %d attempted, %d failed", res.Attempted, res.Failed)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
