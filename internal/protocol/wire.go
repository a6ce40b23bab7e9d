package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire encoding. Marshal produces a complete Ethernet/IPv4/UDP frame;
// Unmarshal parses one. MarshalPayload/UnmarshalPayload handle only the
// UDP payload (kind-tagged), which is what the real-UDP transport puts
// inside genuine OS datagrams where the kernel owns the outer headers.

const (
	etherTypeIPv4 = 0x0800
	ipProtoUDP    = 17
	ipVersionIHL  = 0x45 // IPv4, 5-word header
	defaultTTL    = 64
)

// Marshal encodes the packet as a full Ethernet frame. MAC addresses are
// synthesized from the IP addresses (locally administered).
func Marshal(p *Packet) ([]byte, error) {
	payload, err := MarshalPayload(p)
	if err != nil {
		return nil, err
	}
	udpLen := UDPHeaderLen + len(payload)
	ipLen := IPv4HeaderLen + udpLen
	if ipLen > IPMTU {
		return nil, fmt.Errorf("protocol: packet IP length %d exceeds MTU %d", ipLen, IPMTU)
	}
	buf := make([]byte, EthernetHeaderLen+ipLen)

	// Ethernet.
	copy(buf[0:6], macFor(p.Dst))
	copy(buf[6:12], macFor(p.Src))
	binary.BigEndian.PutUint16(buf[12:14], etherTypeIPv4)

	// IPv4.
	ip := buf[EthernetHeaderLen:]
	ip[0] = ipVersionIHL
	ip[1] = p.ToS
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipLen))
	// The Identification field carries the job ID (multi-tenant
	// extension; zero for single-tenant traffic). Flags and fragment
	// offset stay zero.
	binary.BigEndian.PutUint16(ip[4:6], uint16(p.Job))
	ip[8] = defaultTTL
	ip[9] = ipProtoUDP
	copy(ip[12:16], p.Src.IP[:])
	copy(ip[16:20], p.Dst.IP[:])
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:IPv4HeaderLen]))

	// UDP.
	udp := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], p.Src.Port)
	binary.BigEndian.PutUint16(udp[2:4], p.Dst.Port)
	binary.BigEndian.PutUint16(udp[4:6], uint16(udpLen))
	// UDP checksum optional over IPv4; left zero as the paper's FPGA does.

	copy(udp[UDPHeaderLen:], payload)
	return buf, nil
}

// Unmarshal parses a full Ethernet frame produced by Marshal (or any
// frame with the same layout) into a pooled frame, as UnmarshalPayload
// does. Frames that are not iSwitch traffic are returned with ToS
// preserved so callers can forward them unmodified.
func Unmarshal(frame []byte) (*Packet, error) {
	if len(frame) < EthernetHeaderLen+IPv4HeaderLen+UDPHeaderLen {
		return nil, fmt.Errorf("protocol: frame too short (%d bytes)", len(frame))
	}
	if et := binary.BigEndian.Uint16(frame[12:14]); et != etherTypeIPv4 {
		return nil, fmt.Errorf("protocol: unsupported EtherType %#04x", et)
	}
	ip := frame[EthernetHeaderLen:]
	if ip[0] != ipVersionIHL {
		return nil, fmt.Errorf("protocol: unsupported IP version/IHL %#02x", ip[0])
	}
	if ip[9] != ipProtoUDP {
		return nil, fmt.Errorf("protocol: unsupported IP protocol %d", ip[9])
	}
	if got := ipChecksum(ip[:IPv4HeaderLen]); got != 0 {
		return nil, fmt.Errorf("protocol: bad IPv4 checksum")
	}
	ipLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if ipLen < IPv4HeaderLen+UDPHeaderLen || EthernetHeaderLen+ipLen > len(frame) {
		return nil, fmt.Errorf("protocol: bad IP total length %d", ipLen)
	}
	var src, dst Addr
	copy(src.IP[:], ip[12:16])
	copy(dst.IP[:], ip[16:20])

	udp := ip[IPv4HeaderLen:ipLen]
	src.Port = binary.BigEndian.Uint16(udp[0:2])
	dst.Port = binary.BigEndian.Uint16(udp[2:4])
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen < UDPHeaderLen || udpLen > len(udp) {
		return nil, fmt.Errorf("protocol: bad UDP length %d", udpLen)
	}
	p, err := UnmarshalPayload(src, dst, ip[1], udp[UDPHeaderLen:udpLen])
	if err != nil {
		return nil, err
	}
	p.Job = JobID(binary.BigEndian.Uint16(ip[4:6]))
	return p, nil
}

// MarshalPayload encodes only the UDP payload: for control packets a
// 1-byte Action plus Value, for data packets the 8-byte Seg plus raw
// float32 data. Regular packets have an empty payload.
func MarshalPayload(p *Packet) ([]byte, error) {
	return AppendPayload(nil, p)
}

// AppendPayload appends the UDP payload encoding of p to dst and returns
// the extended slice, letting callers on the transport hot path reuse
// one scratch buffer instead of allocating per packet.
func AppendPayload(dst []byte, p *Packet) ([]byte, error) {
	switch {
	case p.IsControl():
		dst = append(dst, byte(p.Action))
		return append(dst, p.Value...), nil
	case p.IsData():
		if p.Enc != CompNone {
			// Compressed encodings are simulator-only: the DES models
			// their byte counts via WireLen but never serializes them,
			// and the real-UDP transport negotiates CompNone.
			return nil, fmt.Errorf("protocol: cannot marshal %v-encoded data packet", p.Enc)
		}
		if len(p.Data) > FloatsPerPacket {
			return nil, fmt.Errorf("protocol: %d floats exceed packet capacity %d",
				len(p.Data), FloatsPerPacket)
		}
		dst = binary.LittleEndian.AppendUint64(dst, p.Seg)
		for _, f := range p.Data {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
		}
		return dst, nil
	default:
		return dst, nil
	}
}

// unmarshalPayloadInto fills the ToS-selected payload fields of p: a
// control value inline in the header (SetValueCopy), data decoded
// straight into a pooled payload buffer. Nothing aliases payload.
func unmarshalPayloadInto(p *Packet, payload []byte) error {
	switch {
	case p.IsControl():
		if len(payload) < 1 {
			return fmt.Errorf("protocol: control packet missing action byte")
		}
		p.Action = Action(payload[0])
		if len(payload) > 1 {
			p.SetValueCopy(payload[1:])
		}
		return nil
	case p.IsData():
		if len(payload) < SegFieldLen {
			return fmt.Errorf("protocol: data packet shorter than Seg field")
		}
		if (len(payload)-SegFieldLen)%4 != 0 {
			return fmt.Errorf("protocol: data payload length %d not float32-aligned", len(payload))
		}
		p.Seg = binary.LittleEndian.Uint64(payload[0:8])
		raw := payload[SegFieldLen:]
		data := p.ownData(len(raw) / 4)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		return nil
	default:
		return nil
	}
}

// UnmarshalPayload parses a UDP payload given the out-of-band ToS tag
// and addressing (how the real-UDP transport reconstructs packets). The
// result is a pooled frame that owns its payload; the caller releases
// it, and may reuse payload at once.
func UnmarshalPayload(src, dst Addr, tos uint8, payload []byte) (*Packet, error) {
	p := GetPacket()
	p.Src, p.Dst, p.ToS = src, dst, tos
	if err := unmarshalPayloadInto(p, payload); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// macFor synthesizes a deterministic locally-administered MAC from an
// address, so frames are self-consistent without an ARP substrate.
func macFor(a Addr) []byte {
	return []byte{0x02, 0x00, a.IP[0], a.IP[1], a.IP[2], a.IP[3]}
}

// ipChecksum computes the RFC 791 header checksum. Computing it over a
// header whose checksum field is already filled yields zero when valid.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}
