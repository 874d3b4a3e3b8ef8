package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/packetbb"
	"manetkit/internal/system"
)

// maxCaptured bounds the control frames one traced episode keeps for the
// packetbb replay.
const maxCaptured = 20000

// capture keeps copies of the control frames a run transmits, packed into
// one arena so the tap itself barely allocates.
type capture struct {
	arena []byte
	ends  []int
}

// tap is a Network.SetTxTap hook. The frame's payload is the sender's live
// buffer, so the PacketBB body is copied out.
func (c *capture) tap(f emunet.Frame) {
	body, ok := system.ControlBody(f.Payload)
	if !ok || len(c.ends) >= maxCaptured {
		return
	}
	c.arena = append(c.arena, body...)
	c.ends = append(c.ends, len(c.arena))
}

func (c *capture) frames() [][]byte {
	out := make([][]byte, len(c.ends))
	start := 0
	for i, end := range c.ends {
		out[i] = c.arena[start:end:end]
		start = end
	}
	return out
}

// minReplay is the least wall time each replay pass is repeated for.
const minReplay = 200 * time.Millisecond

// replay times packetbb.DecodePacket and EncodePacket over the captured
// control frames, and checks that every decoded packet re-encodes to bytes
// that decode back to an equal packet.
func replay(res *result, c *capture) error {
	frames := c.frames()
	if len(frames) == 0 {
		return fmt.Errorf("no control frames captured")
	}
	pkts := make([]*packetbb.Packet, len(frames))
	total := 0
	bad := 0
	for i, b := range frames {
		total += len(b)
		p, err := packetbb.DecodePacket(b)
		if err != nil {
			bad++
			continue
		}
		pkts[i] = p
		enc, err := packetbb.EncodePacket(p)
		if err != nil {
			bad++
			continue
		}
		back, err := packetbb.DecodePacket(enc)
		if err != nil || !reflect.DeepEqual(back, p) {
			bad++
		}
	}
	if bad > 0 {
		res.Correct = false
		res.notef("packetbb replay: %d of %d captured frames failed decode/encode/decode", bad, len(frames))
		return nil
	}

	decNs, decAllocs := timeLoop(len(frames), func() {
		for _, b := range frames {
			_, _ = packetbb.DecodePacket(b) // decoded once above without error
		}
	})
	encNs, encAllocs := timeLoop(len(frames), func() {
		for _, p := range pkts {
			_, _ = packetbb.EncodePacket(p) // encoded once above without error
		}
	})
	res.set("packetbb.decode_ns_per_frame", decNs, "ns")
	res.set("packetbb.decode_allocs_per_frame", decAllocs, "count")
	res.set("packetbb.encode_ns_per_frame", encNs, "ns")
	res.set("packetbb.encode_allocs_per_frame", encAllocs, "count")
	res.set("packetbb.ctrl_bytes_per_frame", float64(total)/float64(len(frames)), "B")
	res.notef("packetbb replay: %d captured control frames round-trip", len(frames))
	return nil
}

// timeLoop repeats pass (which handles n frames) for at least minReplay and
// returns its wall time and allocations per frame.
func timeLoop(n int, pass func()) (nsPerFrame, allocsPerFrame float64) {
	pass() // warm
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	passes := 0
	for passes < 3 || time.Since(start) < minReplay {
		pass()
		passes++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	frames := float64(n * passes)
	return float64(elapsed.Nanoseconds()) / frames, float64(m1.Mallocs-m0.Mallocs) / frames
}
