package packetbb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"manetkit/internal/mnet"
)

// fuzzSeeds are valid wire encodings covering every element of the format:
// packet sequence numbers, packet/message/address TLVs, shared-head address
// compression, prefix lengths, multi-message packets.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	n1 := mnet.MustParseAddr("10.0.0.1")
	n2 := mnet.MustParseAddr("10.0.0.2")
	n3 := mnet.MustParseAddr("10.9.0.3")
	hello := Message{
		Type:       MsgHello,
		Originator: n1,
		SeqNum:     41,
		TLVs:       []TLV{{Type: TLVValidityTime, Value: U32(7000)}, {Type: TLVWillingness, Value: []byte{3}}},
		AddrBlocks: []AddrBlock{{
			Addrs: []mnet.Addr{n2, n3},
			TLVs: []AddrTLV{
				{Type: ATLVLinkStatus, IndexStart: 0, IndexStop: 1, Value: []byte{LinkStatusSymmetric}},
				{Type: ATLVMPR, IndexStart: 0, IndexStop: 0},
			},
		}},
	}
	tc := Message{
		Type:       MsgTC,
		Originator: n2,
		HopLimit:   16,
		HopCount:   2,
		SeqNum:     900,
		TLVs:       []TLV{{Type: TLVANSN, Value: U16(17)}},
		AddrBlocks: []AddrBlock{{Addrs: []mnet.Addr{n1, n3}}},
	}
	rreq := Message{
		Type:       MsgRREQ,
		Originator: n1,
		HopLimit:   10,
		SeqNum:     7,
		AddrBlocks: []AddrBlock{{
			Addrs:      []mnet.Addr{n1, n3},
			PrefixLens: []uint8{32, 32},
			TLVs: []AddrTLV{
				{Type: ATLVOrigSeq, IndexStart: 0, IndexStop: 0, Value: U16(55)},
				{Type: ATLVHopCount, IndexStart: 1, IndexStop: 1, Value: []byte{4}},
			},
		}},
	}
	packets := []*Packet{
		{Messages: []Message{hello}},
		{SeqNum: 1234, HasSeqNum: true, TLVs: []TLV{{Type: 200, Value: []byte{1, 2, 3}}}, Messages: []Message{tc}},
		{Messages: []Message{hello, tc, rreq}},
	}
	var out [][]byte
	for _, p := range packets {
		enc, err := EncodePacket(p)
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		out = append(out, enc)
		// A corrupted variant of every seed: decoders meet these frames
		// whenever the emulated medium mangles payloads in flight.
		bad := append([]byte(nil), enc...)
		bad[len(bad)/2] ^= 0x55
		out = append(out, bad)
		out = append(out, enc[:len(enc)/2])
	}
	return out
}

// FuzzDecodePacket asserts the decoder never panics on arbitrary input,
// and that accepted inputs reach an encode/decode fixed point: the
// re-encoding of a decoded packet decodes to an identical re-encoding.
func FuzzDecodePacket(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := DecodePacket(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		enc, err := EncodePacket(pkt)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v\n% x", err, data)
		}
		pkt2, err := DecodePacket(enc)
		if err != nil {
			t.Fatalf("re-encoding failed to decode: %v\n% x", err, enc)
		}
		enc2, err := EncodePacket(pkt2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not a fixed point:\nfirst:  % x\nsecond: % x", enc, enc2)
		}
	})
}

// FuzzDecodeMessage is the same property at message granularity.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	m := Message{
		Type:       MsgRREP,
		Originator: mnet.MustParseAddr("10.0.0.9"),
		SeqNum:     3,
		AddrBlocks: []AddrBlock{{Addrs: []mnet.Addr{mnet.MustParseAddr("10.0.0.1")}}},
	}
	enc, err := EncodeMessage(&m)
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		enc, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v\n% x", err, data)
		}
		msg2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoding failed to decode: %v\n% x", err, enc)
		}
		enc2, err := EncodeMessage(msg2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not a fixed point:\nfirst:  % x\nsecond: % x", enc, enc2)
		}
	})
}

// corpusSeeds returns the inputs of a committed fuzz corpus under testdata.
func corpusSeeds(tb testing.TB, target string) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			tb.Fatalf("%s: not a one-value []byte corpus file", name)
		}
		v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(v))
	}
	return out
}

// FuzzForwardPatch is the differential check of forwarding by patching:
// for every message of a decodable packet whose hop limit allows a
// forward, encoding Forward() must give the bytes of EncodeMessage over a
// Clone with the same hop edits, and both must decode to equal messages.
// Each message is checked as decoded (non-canonical input falls back to
// re-encoding) and after one canonicalising round trip (patched in place,
// with the hop-count field spliced in when the originator omitted it).
func FuzzForwardPatch(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range corpusSeeds(f, "FuzzDecodePacket") {
		f.Add(seed)
	}
	// A TC whose ANSN value is framed with a wide length: decodable, but
	// not what the encoder writes, so it must be re-encoded, not patched.
	f.Add([]byte{0x00,
		0x02, 0x0b, 0x00, 0x13, 0x0a, 0x00, 0x00, 0x02, 0x05, 0x03, 0x84,
		0x00, 0x06, TLVANSN, tlvFlagHasValue | tlvFlagWideLen, 0x00, 0x02, 0x00, 0x11})
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := DecodePacket(data)
		if err != nil {
			return
		}
		for i := range pkt.Messages {
			m := &pkt.Messages[i]
			canon, err := EncodeMessage(m.Clone())
			if err != nil {
				t.Fatalf("message %d failed to re-encode: %v", i, err)
			}
			cm, err := DecodeMessage(canon)
			if err != nil {
				t.Fatalf("canonical message %d failed to decode: %v", i, err)
			}
			if cm.Wire() == nil {
				t.Fatalf("encoder output decoded as non-canonical:\n% x", canon)
			}
			for _, msg := range []*Message{m, cm} {
				if msg.HopLimit <= 1 {
					continue
				}
				patched, err := EncodeMessage(msg.Forward())
				if err != nil {
					t.Fatalf("encoding forwarded message %d: %v", i, err)
				}
				edited := msg.Clone()
				edited.HopLimit--
				edited.HopCount++
				want, err := EncodeMessage(edited)
				if err != nil {
					t.Fatalf("encoding edited clone %d: %v", i, err)
				}
				if !bytes.Equal(patched, want) {
					t.Fatalf("message %d: patched bytes differ from re-encode\npatched: % x\nwant:    % x", i, patched, want)
				}
				a, errA := DecodeMessage(patched)
				b, errB := DecodeMessage(want)
				if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
					t.Fatalf("message %d: patched and re-encoded decode differently (%v, %v)", i, errA, errB)
				}
			}
		}
	})
}
