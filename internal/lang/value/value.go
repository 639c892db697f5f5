// Package value defines the run-time representation of PLAN-P values
// shared by the interpreter and the JIT-specialized engine.
//
// A Value is 24 bytes: a kind, one scalar word and one pointer. Integers,
// booleans, characters and hosts live in the scalar word and never
// allocate. Strings, blobs, tuples and lists keep their length in the
// scalar word and their backing data behind the pointer; tables and
// packet headers are the pointer alone. Copying a Value therefore never
// copies more than three words, which is what the engines do on every
// variable read, argument and result.
//
// The pointer's target type depends on the kind, so only this package
// reads it: the accessors (AsStr, AsBlob, Len, At, Elems, AsTable, ...)
// check the kind before they reinterpret the pointer. The scalar word I
// is exported because the engines read int and bool payloads on their
// hottest paths.
//
// Packet headers are immutable: primitives such as ipDestSet return a
// fresh header, which lets engines share header structs between packets
// without defensive copies.
package value

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"unsafe"
)

// Kind tags the dynamic type of a Value.
type Kind uint8

// Value kinds.
const (
	KindUnit Kind = iota + 1
	KindInt
	KindBool
	KindString
	KindChar
	KindHost
	KindBlob
	KindTuple
	KindList
	KindTable
	KindIP
	KindTCP
	KindUDP

	numKinds
)

var kindNames = map[Kind]string{
	KindUnit: "unit", KindInt: "int", KindBool: "bool", KindString: "string",
	KindChar: "char", KindHost: "host", KindBlob: "blob", KindTuple: "tuple",
	KindList: "list", KindTable: "hash_table", KindIP: "ip", KindTCP: "tcp",
	KindUDP: "udp",
}

// String returns the kind's type name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// scalar reports whether values of kind k are carried entirely in the
// scalar word.
func (k Kind) scalar() bool {
	switch k {
	case KindUnit, KindInt, KindBool, KindChar, KindHost:
		return true
	}
	return false
}

// Host is a packed big-endian IPv4 address.
type Host uint32

// String renders the host as a dotted quad.
func (h Host) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(h>>24), byte(h>>16), byte(h>>8), byte(h))
}

// IPHeader mirrors the fields of an IP header that PLAN-P programs can
// observe and rewrite. Values are immutable once constructed.
type IPHeader struct {
	Src   Host
	Dst   Host
	ID    uint32
	Proto uint8 // 6 = TCP, 17 = UDP
	TTL   uint8
	Len   int // total length including payload, bytes
}

// TCPHeader mirrors the TCP header fields visible to PLAN-P programs.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8 // bit 0 SYN, bit 1 ACK, bit 2 FIN, bit 3 RST, bit 4 PSH
	Window  uint16
}

// TCP header flag bits.
const (
	TCPSyn = 1 << iota
	TCPAck
	TCPFin
	TCPRst
	TCPPsh
)

// UDPHeader mirrors the UDP header fields visible to PLAN-P programs.
type UDPHeader struct {
	SrcPort uint16
	DstPort uint16
	Len     int
}

// Value is a PLAN-P runtime value.
type Value struct {
	Kind Kind
	// I is the scalar word: the payload of int, bool (0/1), char and
	// host values, and the length of strings, blobs, tuples and lists.
	I int64
	// p is the string or blob bytes, the tuple or list elements, or the
	// *Table, *IPHeader, *TCPHeader or *UDPHeader, according to Kind.
	p unsafe.Pointer
}

// Constructors.

// Unit is the unit value ().
var Unit = Value{Kind: KindUnit}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// Str returns a string value.
func Str(s string) Value {
	return Value{Kind: KindString, I: int64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// Char returns a character value.
func Char(c byte) Value { return Value{Kind: KindChar, I: int64(c)} }

// HostV returns a host value.
func HostV(h Host) Value { return Value{Kind: KindHost, I: int64(h)} }

// Blob returns a blob value wrapping b (not copied).
func Blob(b []byte) Value {
	return Value{Kind: KindBlob, I: int64(len(b)), p: unsafe.Pointer(unsafe.SliceData(b))}
}

// TupleV returns a tuple of the given elements (not copied).
func TupleV(elems ...Value) Value {
	return Value{Kind: KindTuple, I: int64(len(elems)), p: unsafe.Pointer(unsafe.SliceData(elems))}
}

// ListV returns a list of the given elements (not copied).
func ListV(elems []Value) Value {
	return Value{Kind: KindList, I: int64(len(elems)), p: unsafe.Pointer(unsafe.SliceData(elems))}
}

// TableV wraps a table reference.
func TableV(t *Table) Value { return Value{Kind: KindTable, p: unsafe.Pointer(t)} }

// IP wraps an IP header.
func IP(h *IPHeader) Value { return Value{Kind: KindIP, p: unsafe.Pointer(h)} }

// TCP wraps a TCP header.
func TCP(h *TCPHeader) Value { return Value{Kind: KindTCP, p: unsafe.Pointer(h)} }

// UDP wraps a UDP header.
func UDP(h *UDPHeader) Value { return Value{Kind: KindUDP, p: unsafe.Pointer(h)} }

// Accessors. These trust the type checker: calling them on a value of the
// wrong kind is a bug in an engine, and they panic with a diagnostic.

// wrongKind is the accessors' shared failure path, kept out of line so
// the accessors themselves inline.
//
//go:noinline
func wrongKind(op string, k Kind) {
	panic(fmt.Sprintf("planp/value: %s on %s", op, k))
}

// AsInt returns the integer payload.
func (v Value) AsInt() int64 {
	if v.Kind != KindInt {
		wrongKind("AsInt", v.Kind)
	}
	return v.I
}

// AsBool returns the boolean payload.
func (v Value) AsBool() bool {
	if v.Kind != KindBool {
		wrongKind("AsBool", v.Kind)
	}
	return v.I != 0
}

// AsStr returns the string payload.
func (v Value) AsStr() string {
	if v.Kind != KindString {
		wrongKind("AsStr", v.Kind)
	}
	return unsafe.String((*byte)(v.p), int(v.I))
}

// AsChar returns the character payload.
func (v Value) AsChar() byte {
	if v.Kind != KindChar {
		wrongKind("AsChar", v.Kind)
	}
	return byte(v.I)
}

// AsHost returns the host payload.
func (v Value) AsHost() Host {
	if v.Kind != KindHost {
		wrongKind("AsHost", v.Kind)
	}
	return Host(v.I)
}

// AsBlob returns the blob payload. Its capacity equals its length, so
// appending to it never writes into the shared backing array.
func (v Value) AsBlob() []byte {
	if v.Kind != KindBlob {
		wrongKind("AsBlob", v.Kind)
	}
	return unsafe.Slice((*byte)(v.p), int(v.I))
}

// Len returns the number of elements of a tuple or list.
func (v Value) Len() int {
	if v.Kind != KindTuple && v.Kind != KindList {
		wrongKind("Len", v.Kind)
	}
	return int(v.I)
}

// At returns element i of a tuple or list.
func (v Value) At(i int) Value {
	if v.Kind != KindTuple && v.Kind != KindList {
		wrongKind("At", v.Kind)
	}
	return unsafe.Slice((*Value)(v.p), int(v.I))[i]
}

// Elems returns the elements of a tuple or list. The slice aliases the
// value's backing array (values are immutable; callers must not write
// to it), and its capacity equals its length.
func (v Value) Elems() []Value {
	if v.Kind != KindTuple && v.Kind != KindList {
		wrongKind("Elems", v.Kind)
	}
	return unsafe.Slice((*Value)(v.p), int(v.I))
}

// AsTable returns the table reference.
func (v Value) AsTable() *Table {
	if v.Kind != KindTable || v.p == nil {
		wrongKind("AsTable", v.Kind)
	}
	return (*Table)(v.p)
}

// AsIP returns the IP header.
func (v Value) AsIP() *IPHeader {
	if v.Kind != KindIP || v.p == nil {
		wrongKind("AsIP", v.Kind)
	}
	return (*IPHeader)(v.p)
}

// AsTCP returns the TCP header.
func (v Value) AsTCP() *TCPHeader {
	if v.Kind != KindTCP || v.p == nil {
		wrongKind("AsTCP", v.Kind)
	}
	return (*TCPHeader)(v.p)
}

// AsUDP returns the UDP header.
func (v Value) AsUDP() *UDPHeader {
	if v.Kind != KindUDP || v.p == nil {
		wrongKind("AsUDP", v.Kind)
	}
	return (*UDPHeader)(v.p)
}

// Equal reports deep structural equality between two values of the same
// (equality) type. Header values compare by field contents; blobs by
// bytes. Tables are not equality values (rejected by the checker).
func Equal(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindUnit:
		return true
	case KindInt, KindBool, KindChar, KindHost:
		return a.I == b.I
	case KindString:
		return a.AsStr() == b.AsStr()
	case KindBlob:
		return string(a.AsBlob()) == string(b.AsBlob())
	case KindTuple, KindList:
		if a.I != b.I {
			return false
		}
		x, y := a.Elems(), b.Elems()
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case KindIP:
		return *a.AsIP() == *b.AsIP()
	case KindTCP:
		return *a.AsTCP() == *b.AsTCP()
	case KindUDP:
		return *a.AsUDP() == *b.AsUDP()
	default:
		return false
	}
}

// Table is a mutable PLAN-P hash table keyed by any equality value.
// Tables are reference values: copying a Value that holds a Table aliases
// the same table (matching the paper's use of tables as per-channel
// mutable state).
//
// Tables are not safe for concurrent use; the runtime serializes all
// channel executions on a node.
type Table struct {
	m map[tableKey]Value
}

// tableKey is a Table's fixed-width map key. Scalars and pairs of
// 32-bit-representable scalars (the gateway's (host, port) connection
// key) pack into w under a static shape tag in s, so they hash directly
// and never allocate. Every other equality value keeps its canonical
// encoding (appendKey) in s with w zero. Shape tags start with a zero
// byte and canonical encodings with a kind letter, so the two never
// meet, and tags of different shapes differ, so distinct values never
// share a key.
type tableKey struct {
	s string
	w uint64
}

// Shape tags: "\x00" k for a scalar of kind k, "\x00" t k1 k2 for a
// pair of scalars of kinds k1 and k2.
var scalarTags, pairTags = func() (s [numKinds]string, p [numKinds][numKinds]string) {
	for a := Kind(1); a < numKinds; a++ {
		s[a] = string([]byte{0, byte(a)})
		for b := Kind(1); b < numKinds; b++ {
			p[a][b] = string([]byte{0, 't', byte(a), byte(b)})
		}
	}
	return
}()

// fits32 reports whether a scalar's payload is preserved by uint32.
// Hosts, chars, bools and unit always are; ints when in int32 range.
func fits32(v Value) bool { return v.Kind != KindInt || v.I == int64(int32(v.I)) }

// packedKey returns k's table key when k has a packed shape.
func packedKey(k Value) (tableKey, bool) {
	if k.Kind.scalar() {
		return tableKey{s: scalarTags[k.Kind], w: uint64(k.I)}, true
	}
	if k.Kind == KindTuple && k.I == 2 {
		a, b := k.At(0), k.At(1)
		if a.Kind.scalar() && b.Kind.scalar() && fits32(a) && fits32(b) {
			return tableKey{s: pairTags[a.Kind][b.Kind], w: uint64(uint32(a.I))<<32 | uint64(uint32(b.I))}, true
		}
	}
	return tableKey{}, false
}

// lookupKey returns k's table key for a lookup. A value without a packed
// shape is encoded into buf and the key aliases it, so the key must not
// be stored.
func lookupKey(k Value, buf []byte) tableKey {
	if key, ok := packedKey(k); ok {
		return key
	}
	buf = appendKey(buf, k)
	return tableKey{s: unsafe.String(unsafe.SliceData(buf), len(buf))}
}

// NewTable returns an empty table with a capacity hint (the paper's
// mkTable(256) idiom).
func NewTable(capacity int) *Table {
	if capacity < 1 {
		capacity = 1
	}
	return &Table{m: make(map[tableKey]Value, capacity)}
}

// Put stores v under key k, replacing any previous value.
func (t *Table) Put(k Value, v Value) {
	key, ok := packedKey(k)
	if !ok {
		key = tableKey{s: EncodeKey(k)}
	}
	t.m[key] = v
}

// Get returns the value stored under k and whether it was present.
func (t *Table) Get(k Value) (Value, bool) {
	var scratch [64]byte
	v, ok := t.m[lookupKey(k, scratch[:0])]
	return v, ok
}

// Delete removes k from the table (a no-op if absent).
func (t *Table) Delete(k Value) {
	var scratch [64]byte
	delete(t.m, lookupKey(k, scratch[:0]))
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.m) }

// EncodeKey renders v in its canonical encoding (see appendKey).
func EncodeKey(v Value) string {
	var scratch [64]byte
	return string(appendKey(scratch[:0], v))
}

// appendKey appends v's canonical encoding to buf. The encoding is
// prefix-free: a kind letter, then fixed-width fields or a length
// followed by the contents, and it covers every field Equal compares.
// So two values of equality type have the same encoding exactly when
// they are Equal.
func appendKey(buf []byte, v Value) []byte {
	switch v.Kind {
	case KindUnit:
		return append(buf, 'u')
	case KindInt:
		return binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(v.I))
	case KindBool:
		return append(buf, 'b', byte(v.I))
	case KindChar:
		return append(buf, 'c', byte(v.I))
	case KindHost:
		return binary.BigEndian.AppendUint32(append(buf, 'h'), uint32(v.I))
	case KindString:
		buf = binary.AppendUvarint(append(buf, 's'), uint64(v.I))
		return append(buf, v.AsStr()...)
	case KindBlob:
		buf = binary.AppendUvarint(append(buf, 'B'), uint64(v.I))
		return append(buf, v.AsBlob()...)
	case KindTuple, KindList:
		tag := byte('t')
		if v.Kind == KindList {
			tag = 'l'
		}
		buf = binary.AppendUvarint(append(buf, tag), uint64(v.I))
		for _, e := range v.Elems() {
			buf = appendKey(buf, e)
		}
		return buf
	case KindIP:
		h := v.AsIP()
		buf = append(buf, 'I')
		buf = binary.BigEndian.AppendUint32(buf, uint32(h.Src))
		buf = binary.BigEndian.AppendUint32(buf, uint32(h.Dst))
		buf = append(buf, h.Proto, h.TTL)
		buf = binary.BigEndian.AppendUint64(buf, uint64(h.Len))
		return binary.BigEndian.AppendUint32(buf, h.ID)
	case KindTCP:
		h := v.AsTCP()
		buf = append(buf, 'T')
		buf = binary.BigEndian.AppendUint16(buf, h.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, h.DstPort)
		buf = binary.BigEndian.AppendUint32(buf, h.Seq)
		buf = binary.BigEndian.AppendUint32(buf, h.Ack)
		buf = append(buf, h.Flags)
		return binary.BigEndian.AppendUint16(buf, h.Window)
	case KindUDP:
		h := v.AsUDP()
		buf = append(buf, 'U')
		buf = binary.BigEndian.AppendUint16(buf, h.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, h.DstPort)
		return binary.BigEndian.AppendUint64(buf, uint64(h.Len))
	default:
		return append(buf, '?')
	}
}

// String renders the value for diagnostics and the print/println
// primitives, in an SML-flavoured notation.
func (v Value) String() string {
	switch v.Kind {
	case KindUnit:
		return "()"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindChar:
		return "'" + string(byte(v.I)) + "'"
	case KindHost:
		return Host(v.I).String()
	case KindString:
		return v.AsStr()
	case KindBlob:
		return fmt.Sprintf("<blob %dB>", v.I)
	case KindTuple:
		return "(" + joinElems(v) + ")"
	case KindList:
		return "[" + joinElems(v) + "]"
	case KindTable:
		return fmt.Sprintf("<hash_table %d entries>", v.AsTable().Len())
	case KindIP:
		h := v.AsIP()
		return fmt.Sprintf("<ip %s->%s proto=%d len=%d>", h.Src, h.Dst, h.Proto, h.Len)
	case KindTCP:
		h := v.AsTCP()
		return fmt.Sprintf("<tcp %d->%d seq=%d>", h.SrcPort, h.DstPort, h.Seq)
	case KindUDP:
		h := v.AsUDP()
		return fmt.Sprintf("<udp %d->%d>", h.SrcPort, h.DstPort)
	default:
		return "<invalid>"
	}
}

func joinElems(v Value) string {
	elems := v.Elems()
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Exception is a PLAN-P-level exception. Engines raise it with panic and
// recover it at try/handle boundaries and at the channel-invocation
// boundary, where it is converted to an error. It never crosses the
// public API as a panic.
type Exception struct {
	Msg string
}

// Error implements error so unhandled exceptions surface cleanly.
func (e Exception) Error() string { return "planp exception: " + e.Msg }

// Raise panics with a PLAN-P exception. It is the single raising point
// used by all engines and primitives.
func Raise(format string, args ...any) {
	panic(Exception{Msg: fmt.Sprintf(format, args...)})
}
