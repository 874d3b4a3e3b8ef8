package emunet

import (
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/trace"
)

// netObs bundles the medium's instruments, resolved once in SetMetrics /
// SetTracer so the per-frame paths never consult the registry. A nil
// bundle (observability disabled) costs one nil check per frame.
type netObs struct {
	reg    *metrics.Registry
	tracer *trace.Tracer

	txFrames      *metrics.Counter
	rxFrames      *metrics.Counter
	droppedLoss   *metrics.Counter
	droppedNoLink *metrics.Counter
	corrupted     *metrics.Counter

	linkDelay *metrics.Histogram // per-delivery scheduled link delay

	// Event-core epoch counters.
	engEpochs      *metrics.Counter
	engEpochEvents *metrics.Counter
}

func newNetObs(reg *metrics.Registry, tr *trace.Tracer) *netObs {
	if reg == nil && tr == nil {
		return nil
	}
	return &netObs{
		reg:           reg,
		tracer:        tr,
		txFrames:      reg.Counter("net_tx_frames"),
		rxFrames:      reg.Counter("net_rx_frames"),
		droppedLoss:   reg.Counter("net_dropped_loss"),
		droppedNoLink: reg.Counter("net_dropped_nolink"),
		corrupted:     reg.Counter("net_rx_corrupted"),
		linkDelay:     reg.Histogram("net_link_delay"),

		engEpochs:      reg.Counter("net_engine_epochs"),
		engEpochEvents: reg.Counter("net_engine_epoch_events"),
	}
}

// SetMetrics attaches a metrics registry to the medium (nil detaches,
// unless a tracer is still installed). Call before traffic starts.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var tr *trace.Tracer
	if n.obs != nil {
		tr = n.obs.tracer
	}
	n.obs = newNetObs(reg, tr)
}

// SetTracer attaches a span tracer to the medium (nil detaches, unless a
// metrics registry is still installed). Call before traffic starts.
func (n *Network) SetTracer(tr *trace.Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var reg *metrics.Registry
	if n.obs != nil {
		reg = n.obs.reg
	}
	n.obs = newNetObs(reg, tr)
}

// traceTo renders a frame destination for spans.
func traceTo(dst mnet.Addr) string {
	if dst.IsBroadcast() {
		return "bcast"
	}
	return dst.String()
}
