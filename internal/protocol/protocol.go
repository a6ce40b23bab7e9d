// Package protocol implements the iSwitch wire format.
//
// iSwitch rides on ordinary Ethernet/IPv4/UDP frames and claims two
// reserved values of the IP Type-of-Service byte to mark its traffic
// (paper §3.2, Figure 5): one for control packets and one for data
// packets. A control packet carries a one-byte Action plus an optional
// Value payload; a data packet carries an 8-byte segment index (Seg)
// followed by raw little-endian float32 gradient data.
package protocol

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// Reserved ToS values tagging iSwitch traffic. Any other ToS means the
// packet is regular traffic and must be forwarded untouched.
const (
	ToSRegular = 0x00
	ToSControl = 0x41
	ToSData    = 0x42
)

// Frame and header geometry (bytes). The paper uses standard Ethernet
// with a 1522-byte maximum frame (1500-byte IP MTU plus 802.1Q tag room).
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20
	UDPHeaderLen      = 8
	SegFieldLen       = 8
	MaxFrameLen       = 1522
	IPMTU             = 1500

	// MaxDataPayload is the gradient bytes that fit in one data packet:
	// IP MTU minus IP, UDP, and Seg headers.
	MaxDataPayload = IPMTU - IPv4HeaderLen - UDPHeaderLen - SegFieldLen // 1464

	// FloatsPerPacket is MaxDataPayload expressed in float32 elements.
	FloatsPerPacket = MaxDataPayload / 4 // 366
)

// JobID identifies the training job a packet belongs to on a
// multi-tenant fabric. iSwitch's single-job protocol leaves the IPv4
// Identification field zero (wire.go); the multi-tenant extension
// claims those 16 bits the same way the base protocol claims the ToS
// byte — so tagging a packet with its job costs zero wire bytes and
// legacy single-job traffic is exactly job 0.
type JobID uint16

// DefaultJob is the implicit job of untagged (single-tenant) traffic.
const DefaultJob JobID = 0

// Action codes for control messages (paper Table 2).
type Action uint8

const (
	ActionInvalid Action = iota
	ActionJoin           // join the training job
	ActionLeave          // leave the training job
	ActionReset          // clear accelerator buffers/counters on the switch
	ActionSetH           // set the aggregation threshold H on the switch
	ActionFBcast         // force broadcast of a partially aggregated segment
	ActionHelp           // request a lost data packet for a worker
	ActionHalt           // suspend the training job on all workers
	ActionAck            // confirm success/failure of actions
)

var actionNames = map[Action]string{
	ActionJoin:   "Join",
	ActionLeave:  "Leave",
	ActionReset:  "Reset",
	ActionSetH:   "SetH",
	ActionFBcast: "FBcast",
	ActionHelp:   "Help",
	ActionHalt:   "Halt",
	ActionAck:    "Ack",
}

// String returns the paper's name for the action.
func (a Action) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// Describe returns the paper's one-line description (Table 2).
func (a Action) Describe() string {
	switch a {
	case ActionJoin:
		return "Join the training job"
	case ActionLeave:
		return "Leave the training job"
	case ActionReset:
		return "Clear accelerator buffers/counters on the switch"
	case ActionSetH:
		return "Set the aggregation threshold H on the switch"
	case ActionFBcast:
		return "Force broadcasting a partially aggregated segment on the switch"
	case ActionHelp:
		return "Request a lost data packet for a worker"
	case ActionHalt:
		return "Suspend the training job on all workers"
	case ActionAck:
		return "Confirm the success/failure of actions"
	}
	return "unknown"
}

// Actions lists all defined control actions in Table 2 order.
func Actions() []Action {
	return []Action{ActionJoin, ActionLeave, ActionReset, ActionSetH,
		ActionFBcast, ActionHelp, ActionHalt, ActionAck}
}

// Addr is an IPv4 address plus UDP port, the identity a worker or switch
// presents to the iSwitch control plane.
type Addr struct {
	IP   [4]byte
	Port uint16
}

// String formats the address in dotted-quad:port form. Every host, port
// and membership row is named by one at set-up, so it avoids fmt.
func (a Addr) String() string {
	b := make([]byte, 0, len("255.255.255.255:65535"))
	for i, octet := range a.IP {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	b = append(b, ':')
	return string(strconv.AppendUint(b, uint64(a.Port), 10))
}

// Key packs the address into one integer, IP octets above the port:
// distinct addresses have distinct keys, so tables indexed by address
// (membership, liveness, routes) key on it and hash eight bytes with
// the runtime's integer fast path instead of a six-byte struct.
func (a Addr) Key() uint64 {
	return uint64(a.IP[0])<<40 | uint64(a.IP[1])<<32 | uint64(a.IP[2])<<24 |
		uint64(a.IP[3])<<16 | uint64(a.Port)
}

// AddrFrom builds an Addr from four octets and a port.
func AddrFrom(a, b, c, d byte, port uint16) Addr {
	return Addr{IP: [4]byte{a, b, c, d}, Port: port}
}

// Packet is a parsed iSwitch packet. Exactly one of the control fields
// (Action/Value) or the data fields (Seg/Data) is meaningful, selected
// by ToS.
type Packet struct {
	Src Addr
	Dst Addr
	ToS uint8

	// Job scopes the packet to one training job on a multi-tenant
	// fabric (0 = the default single-tenant job). Carried in the IPv4
	// Identification field, so it adds no wire bytes.
	Job JobID

	// Control packet fields (ToS == ToSControl).
	Action Action
	Value  []byte

	// Data packet fields (ToS == ToSData).
	Seg  uint64
	Data []float32

	// Compression fields (compress.go). Enc tags the data encoding
	// (CompNone = raw float32 in Data). CompInt32Block packets carry
	// quantized values in QData plus the emission-narrowing Shift;
	// CompTopK packets carry sparse indices in Idx with their values in
	// Data; CompFP16 packets keep rounded floats in Data but are charged
	// 2 wire bytes per element.
	Enc   Compression
	Shift uint8
	QData []int32
	Idx   []uint16

	// Frame memory (pool.go). pooled marks headers from GetPacket;
	// inline stores a control value of up to InlineValueLen bytes; refs
	// counts the holders of a pooled header (Ref), so the last Release
	// returns it; pay is the header's one reference to a counted payload
	// record, nil when the payload fields alias memory the frame does
	// not manage. refs sits after inline, in the padding before pay: the
	// header stays 160 bytes (TestPacketNoLargerThanBefore).
	pooled bool
	inline [InlineValueLen]byte
	refs   int32
	pay    *payload
}

// IsControl reports whether the packet is an iSwitch control packet.
func (p *Packet) IsControl() bool { return p.ToS == ToSControl }

// IsData reports whether the packet is an iSwitch data packet.
func (p *Packet) IsData() bool { return p.ToS == ToSData }

// IsISwitch reports whether the packet belongs to the iSwitch protocol.
func (p *Packet) IsISwitch() bool { return p.IsControl() || p.IsData() }

// WireLen returns the packet's on-the-wire frame length in bytes,
// including Ethernet, IP, and UDP headers. It is the quantity the
// network simulator charges against link bandwidth; for compressed
// encodings it models the layout documented in compress.go even though
// the in-memory payload stays wide.
func (p *Packet) WireLen() int {
	n := EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen
	if p.IsControl() {
		return n + 1 + len(p.Value)
	}
	if p.IsServe() {
		// Serve frames reuse the data layout with Seg carrying the
		// request ID and a raw float32 payload (serve.go).
		return n + SegFieldLen + 4*len(p.Data)
	}
	if p.IsData() {
		switch p.Enc {
		case CompInt32Block:
			return DataWireLen(p.Enc, len(p.QData))
		case CompTopK:
			// Always the sparse layout: dense top-k emissions travel as
			// CompNone, so a CompTopK tag means a worker selection — and
			// an empty selection is a legal (count-only) packet.
			return n + SegFieldLen + CountFieldLen + SparseEntryLen*len(p.Idx)
		default:
			return DataWireLen(p.Enc, len(p.Data))
		}
	}
	return n
}

// DataWireLen is the wire length of a data frame carrying n values in
// enc's dense layout (raw float32, fp16 or int32block; a top-k
// selection's length follows its entries instead): WireLen's arithmetic
// for a frame whose header is not made yet.
func DataWireLen(enc Compression, n int) int {
	h := EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen + SegFieldLen
	switch enc {
	case CompFP16:
		return h + 2*n
	case CompInt32Block:
		return h + ShiftFieldLen + 2*n
	default:
		return h + 4*n
	}
}

// Clone returns a deep copy of the packet. Switches that broadcast one
// aggregated packet to many receivers clone so receivers cannot alias
// each other's payload.
func (p *Packet) Clone() *Packet {
	q := *p
	// The clone is an independent unpooled packet: it must not inherit
	// the original's pooled mark or its payload reference.
	q.pooled, q.pay = false, nil
	if p.Value != nil {
		q.Value = append([]byte(nil), p.Value...)
	}
	if p.Data != nil {
		q.Data = append([]float32(nil), p.Data...)
	}
	if p.QData != nil {
		q.QData = append([]int32(nil), p.QData...)
	}
	if p.Idx != nil {
		q.Idx = append([]uint16(nil), p.Idx...)
	}
	return &q
}

// NewControl builds a control packet on a pooled header, copying value
// in. Whoever the control is addressed to releases it.
func NewControl(src, dst Addr, action Action, value []byte) *Packet {
	p := GetPacket()
	p.Src, p.Dst, p.ToS, p.Action = src, dst, ToSControl, action
	if value != nil {
		p.SetValueCopy(value)
	}
	return p
}

// NewData builds a data packet carrying one gradient segment on a
// pooled header. The payload aliases data.
func NewData(src, dst Addr, seg uint64, data []float32) *Packet {
	if len(data) > FloatsPerPacket {
		panic(fmt.Sprintf("protocol: segment of %d floats exceeds packet capacity %d",
			len(data), FloatsPerPacket))
	}
	p := GetPacket()
	p.Src, p.Dst, p.ToS, p.Seg, p.Data = src, dst, ToSData, seg, data
	return p
}

// SetHValue encodes the aggregation-threshold payload for a SetH control
// message.
func SetHValue(h uint32) []byte {
	v := make([]byte, 4)
	binary.LittleEndian.PutUint32(v, h)
	return v
}

// ParseSetH decodes the payload of a SetH control message.
func ParseSetH(value []byte) (uint32, error) {
	if len(value) != 4 {
		return 0, fmt.Errorf("protocol: SetH value must be 4 bytes, got %d", len(value))
	}
	return binary.LittleEndian.Uint32(value), nil
}

// JoinValue encodes the Join metadata payload: the model's gradient
// vector length in float32 elements, from which both sides derive the
// segment count.
func JoinValue(modelFloats uint64) []byte {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, modelFloats)
	return v
}

// ParseJoin decodes a Join payload.
func ParseJoin(value []byte) (modelFloats uint64, err error) {
	if len(value) != 8 {
		return 0, fmt.Errorf("protocol: Join value must be 8 bytes, got %d", len(value))
	}
	return binary.LittleEndian.Uint64(value), nil
}

// HelpValue encodes a Help payload: the Seg index of the lost packet.
func HelpValue(seg uint64) []byte {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, seg)
	return v
}

// NewHelp builds a Help control for the lost packet seg, written
// straight into the header's inline value.
func NewHelp(src, dst Addr, seg uint64) *Packet {
	p := NewControl(src, dst, ActionHelp, nil)
	p.Value = p.inline[:8]
	binary.LittleEndian.PutUint64(p.Value, seg)
	return p
}

// ParseHelp decodes a Help payload.
func ParseHelp(value []byte) (seg uint64, err error) {
	if len(value) != 8 {
		return 0, fmt.Errorf("protocol: Help value must be 8 bytes, got %d", len(value))
	}
	return binary.LittleEndian.Uint64(value), nil
}

// AckOK and AckFail are the two Ack payloads.
var (
	AckOK   = []byte{1}
	AckFail = []byte{0}
)
