package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"manetkit/internal/prof"
)

// layers are the ledger's buckets, named after the repository's modules.
var layers = []string{
	"emunet", "vclock", "system", "packetbb", "core", "event", "kernel",
	"neighbor", "mpr", "olsr", "dymo", "aodv", "zrp", "route",
	"runtime", "obs", "other",
}

// callerLayer marks a package whose samples belong to the layer that
// called it: shared value types carry no cost of their own.
const callerLayer = ""

// packageLayer maps every manetkit package the benchmark links to its
// layer. TestLayerMapCoversLinkedPackages fails when a package is missing,
// so a new package cannot fall silently into "other".
var packageLayer = map[string]string{
	"manetkit":                    "core", // the facade: stacks, deployment
	"manetkit/mkperf":             "other",
	"manetkit/internal/aodv":      "aodv",
	"manetkit/internal/coord":     "core",
	"manetkit/internal/core":      "core",
	"manetkit/internal/dymo":      "dymo",
	"manetkit/internal/emunet":    "emunet",
	"manetkit/internal/event":     "event",
	"manetkit/internal/inspect":   "obs",
	"manetkit/internal/invariant": "obs",
	"manetkit/internal/kernel":    "kernel",
	"manetkit/internal/metrics":   "obs",
	"manetkit/internal/mnet":      callerLayer,
	"manetkit/internal/mpr":       "mpr",
	"manetkit/internal/neighbor":  "neighbor",
	"manetkit/internal/olsr":      "olsr",
	"manetkit/internal/packetbb":  "packetbb",
	"manetkit/internal/policy":    "core",
	"manetkit/internal/pool":      "core",
	"manetkit/internal/prof":      "other",
	"manetkit/internal/queue":     "core",
	"manetkit/internal/route":     "route",
	"manetkit/internal/system":    "system",
	"manetkit/internal/telemetry": "obs",
	"manetkit/internal/trace":     "obs",
	"manetkit/internal/vclock":    "vclock",
	"manetkit/internal/zrp":       "zrp",
}

// runtimeFrames are the garbage collector, allocator and scheduler entry
// points: CPU spent under one of them is the runtime layer's, whoever
// triggered it. The value marks the collector's own frames.
var runtimeFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.gcDrain":           true,
	"runtime.gcDrainN":          true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.wbBufFlush":        true,
	"runtime.scanobject":        true,
	"runtime.markroot":          true,
	"runtime.mallocgc":          false,
	"runtime.schedule":          false,
	"runtime.findRunnable":      false,
	"runtime.park_m":            false,
	"runtime.mcall":             false,
	"runtime.morestack":         false,
	"runtime.newstack":          false,
	"runtime.sysmon":            false,
}

// funcPackage is the import path of a symbol name as pprof records it, e.g.
// "manetkit/internal/core.(*Manager).emit.func1" → "manetkit/internal/core".
// The benchmark's own package links as "main".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation arguments
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	pkg := name[:slash+1+dot]
	if pkg == "main" {
		return "manetkit/mkperf"
	}
	return pkg
}

// frameNames resolves every frame of a sample, leaf first, through the
// profile's exported API: LeafName of the stack suffix starting at frame i.
func frameNames(p *prof.Profile, s prof.Sample) []string {
	names := make([]string, len(s.Locations))
	for i := range s.Locations {
		names[i] = p.LeafName(prof.Sample{Locations: s.Locations[i:]})
	}
	return names
}

// classify attributes one stack (leaf first) to a layer, and reports whether
// it is garbage collection. With cpu set, time under the collector,
// allocator or scheduler is the runtime's. Otherwise
// the first frame of a manetkit package owns the sample; standard-library
// and runtime helpers below it (map access, copies, locks) are charged to
// that caller. Stacks with no manetkit frame are the runtime's when they run
// in it, "other" when not.
func classify(names []string, cpu bool) (layer string, gc bool) {
	for _, n := range names {
		if gc, ok := runtimeFrames[n]; cpu && ok {
			return "runtime", gc
		}
		if l, ok := packageLayer[funcPackage(n)]; ok && l != callerLayer {
			return l, false
		}
	}
	for _, n := range names {
		if strings.HasPrefix(n, "runtime.") {
			return "runtime", false
		}
	}
	return "other", false
}

// attribution is a profile's per-layer totals in one sample dimension.
type attribution struct {
	byLayer map[string]int64
	gc      int64 // cpu only: the part of "runtime" that is collection
	total   int64
}

func attribute(p *prof.Profile, valueType string, cpu bool) (attribution, error) {
	idx := -1
	for i, vt := range p.SampleTypes {
		if vt.Type == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return attribution{}, fmt.Errorf("profile has no %q samples", valueType)
	}
	a := attribution{byLayer: map[string]int64{}}
	for _, s := range p.Samples {
		v := s.Values[idx]
		if v == 0 {
			continue
		}
		layer, gc := classify(frameNames(p, s), cpu)
		a.byLayer[layer] += v
		a.total += v
		if gc {
			a.gc += v
		}
	}
	return a, nil
}

// heapProfile snapshots the allocation profile after a collection, which
// publishes every allocation made before it.
func heapProfile() (*prof.Profile, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return prof.Parse(buf.Bytes())
}

// ledger is the traced run: an untraced reference episode, one under the
// CPU profiler (which also captures control frames for the packetbb
// replay), and one with every allocation profiled. All three must produce
// the reference digest.
func ledger(sp spec, seed int64) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}

	ref, err := runEpisode(sp, seed, hooks{})
	if err != nil {
		return nil, err
	}

	var cpuBuf bytes.Buffer
	var cpuErr error
	capt := &capture{}
	cpuEp, err := runEpisode(sp, seed, hooks{capture: capt, around: func(drive func()) {
		if cpuErr = pprof.StartCPUProfile(&cpuBuf); cpuErr != nil {
			return
		}
		drive()
		pprof.StopCPUProfile()
	}})
	if err == nil {
		err = cpuErr
	}
	if err != nil {
		return nil, err
	}

	var before, after *prof.Profile
	var allocErr error
	allocEp, err := runEpisode(sp, seed, hooks{around: func(drive func()) {
		rate := runtime.MemProfileRate
		runtime.MemProfileRate = 1
		defer func() { runtime.MemProfileRate = rate }()
		if before, allocErr = heapProfile(); allocErr != nil {
			return
		}
		drive()
		after, allocErr = heapProfile()
	}})
	if err == nil {
		err = allocErr
	}
	if err != nil {
		return nil, err
	}
	check(res, []*episode{ref, cpuEp, allocEp})

	cpuProf, err := prof.Parse(cpuBuf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	cpu, err := attribute(cpuProf, "cpu", true)
	if err != nil {
		return nil, err
	}
	a0, err := attribute(before, "alloc_objects", false)
	if err != nil {
		return nil, err
	}
	a1, err := attribute(after, "alloc_objects", false)
	if err != nil {
		return nil, err
	}

	rx := float64(ref.net.RxFrames)
	for _, l := range layers {
		res.set(l+".self_ns_per_rx", float64(cpu.byLayer[l])/rx, "ns")
		res.set(l+".allocs_per_rx", float64(a1.byLayer[l]-a0.byLayer[l])/rx, "count")
	}
	res.set("other.cpu_share", ratio(float64(cpu.byLayer["other"]), float64(cpu.total)), "ratio")
	res.set("runtime.gc_cpu_share", ratio(float64(cpu.gc), float64(cpu.total)), "ratio")
	res.set("runtime.gc_cycles", float64(ref.gcCycles), "count")
	res.notef("cpu profile: %d ms of samples over a %.0f ms drive; other share %.2f%%",
		cpu.total/1e6, micros(cpuEp.drive)/1e3, 100*res.Metrics["other.cpu_share"].Value)

	layerCounters(res, ref)
	res.set("trace.overhead_ratio", cpuEp.drive.Seconds()/ref.drive.Seconds(), "ratio")
	res.set("trace.alloc_overhead_ratio", allocEp.drive.Seconds()/ref.drive.Seconds(), "ratio")

	if err := replay(res, capt); err != nil {
		return nil, err
	}
	if err := seedChangesDigest(res, sp, seed); err != nil {
		return nil, err
	}
	return res, nil
}

// layerCounters reports the layers' own counters and the timed calls of
// the untraced reference episode.
func layerCounters(res *result, ep *episode) {
	rx := float64(ep.net.RxFrames)
	res.set("system.ctrl_rx", float64(ep.sys.CtrlReceived), "count")
	res.set("system.ctrl_tx", float64(ep.sys.CtrlSent), "count")
	res.set("system.data_fwd", float64(ep.sys.DataForwarded), "count")
	res.set("system.data_delivered", float64(ep.sys.DataDelivered), "count")
	res.set("system.decode_errors", float64(ep.sys.DecodeErrors), "count")
	res.set("system.slow_path_share", ratio(float64(ep.sys.DataBuffered), float64(ep.sys.DataSent)), "ratio")
	res.set("emunet.tx_frames", float64(ep.net.TxFrames), "count")
	res.set("emunet.rx_frames", rx, "count")
	res.set("emunet.dropped_loss", float64(ep.net.DroppedLoss), "count")
	res.set("emunet.bcast_fanout", ratio(rx, float64(ep.net.TxFrames)), "ratio")
	res.set("core.emitted", float64(ep.mgr.Emitted), "count")
	res.set("core.delivered", float64(ep.mgr.Delivered), "count")
	res.set("core.dropped", float64(ep.mgr.Dropped), "count")
	res.set("core.deliveries_per_rx", ratio(float64(ep.mgr.Delivered), rx), "ratio")
	res.set("core.rewires", float64(ep.mgr.Rewires), "count")
	res.set("core.deploy_p50_us", micros(quantileDur(sortedDur(ep.deploys), 0.5)), "us")
	res.set("core.undeploy_p50_us", micros(quantileDur(sortedDur(ep.undeploys), 0.5)), "us")
	res.set("core.variant_toggle_p50_us", micros(quantileDur(sortedDur(ep.toggles), 0.5)), "us")
	res.set("switch.samples", float64(len(ep.switches)), "count")
	res.set("switch.p99_us", micros(quantileDur(sortedDur(ep.switches), 0.99)), "us")
	res.set("route.fib_ops", float64(ep.fibOps), "count")
	res.set("route.fib_ops_per_rx", ratio(float64(ep.fibOps), rx), "ratio")
	res.set("setup.stacks_s", ep.setupStacks.Seconds(), "s")
	res.set("setup.links_s", ep.setupLinks.Seconds(), "s")
	res.set("setup.deploy_s", ep.setupDeploy.Seconds(), "s")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// seedChangesDigest checks that the seed reaches the simulation: the
// workload's smoke-sized episode must give different digests for seed and
// seed+1.
func seedChangesDigest(res *result, sp spec, seed int64) error {
	small := smoke(sp)
	a, err := runEpisode(small, seed, hooks{})
	if err != nil {
		return err
	}
	b, err := runEpisode(small, seed+1, hooks{})
	if err != nil {
		return err
	}
	if a.digest == b.digest {
		res.Correct = false
		res.notef("seeds %d and %d give the same digest: %s", seed, seed+1, a.digest)
	}
	return nil
}

// smoke shrinks a workload to a sub-second episode that still exercises
// every mechanism it measures.
func smoke(sp spec) spec {
	switch sp.name {
	case "olsr-grid":
		sp.cols, sp.window = 5, 12*time.Second
	case "dymo-data":
		sp.cols, sp.flows, sp.window = 8, 6, 6*time.Second
	case "switch":
		sp.cols, sp.flows, sp.cycles = 5, 3, 1
	}
	return sp
}
