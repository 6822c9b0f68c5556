package taskgraph

// Artifact encoding: the flat, versioned, little-endian serialization of a
// lowered structural Graph that the persistent artifact tier
// (internal/artifact) writes to disk. The layout mirrors the in-memory
// representation exactly — value slabs in dispatch order, the parents CSR,
// a deduplicated descriptor table — and every slab section is
// padded to a 4-byte payload offset, so on little-endian hosts a load
// aliases the slabs straight out of the read buffer: no per-task decode
// loop, no bulk copies, O(#slabs) pointer work plus validation scans.
// Durations are not stored: a structural graph has none, which is exactly
// why one artifact serves every plan of its shape on any hardware. Nor are
// trace labels, which no graph carries (see TraceLabels), nor classes,
// which follow from the descriptors (see indexClasses).
//
// The container around this payload (magic, format version, checksum) is
// internal/artifact's concern; UnmarshalArtifact still validates every
// count and index it reads, so corrupt bytes that somehow pass the
// checksum produce an error, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"vtrain/internal/model"
	"vtrain/internal/profiler"
)

// EncodingVersion identifies the artifact payload layout produced by
// Graph.MarshalArtifact. It is embedded in the payload and in the artifact
// store's content hash, so a version bump makes old files silent cache
// misses instead of misdecodes.
const EncodingVersion = 5

// ErrBadArtifact is returned by UnmarshalArtifact for any malformed
// payload: wrong version, truncated data, trailing bytes, or an index out
// of range. Callers treat it as a cache miss and re-lower.
var ErrBadArtifact = errors.New("taskgraph: malformed artifact payload")

// hostLittle reports whether the host stores integers little-endian, in
// which case slab encode/decode is a single byte-reinterpreting copy.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// int32Bytes reinterprets an int32 slab as its in-memory bytes. Only
// meaningful on little-endian hosts (the stored byte order).
func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func appendInt32Slab(b []byte, s []int32) []byte {
	if hostLittle {
		return append(b, int32Bytes(s)...)
	}
	for _, v := range s {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// pad4 zero-pads the payload to the next 4-byte boundary. Every int32
// section is padded to a 4-aligned payload offset so the decoder can alias
// it straight out of the (heap-aligned) read buffer instead of copying.
func pad4(b []byte) []byte {
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	return b
}

// MarshalArtifact serializes a lowered structural graph. The error is
// always nil.
func (g *Graph) MarshalArtifact() ([]byte, error) {
	n := g.NumTasks()
	size := 4 + 4 + len(g.Model.Name) + 6*8 + 3*8 +
		len(g.descs)*33 + 3 + 4*(3*n+1+len(g.parents))
	buf := make([]byte, 0, size)

	buf = binary.LittleEndian.AppendUint32(buf, EncodingVersion)
	buf = appendString(buf, g.Model.Name)
	for _, v := range []int{g.Model.Hidden, g.Model.Layers, g.Model.SeqLen, g.Model.Heads, g.Model.Vocab, g.Devices} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	for _, v := range []int{n, len(g.parents), len(g.descs)} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	for _, d := range g.descs {
		buf = append(buf, byte(d.kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(d.op)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.kernel))
		buf = binary.LittleEndian.AppendUint64(buf, d.stageParams)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.buckets))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.from))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.to))
	}
	buf = pad4(buf)
	buf = appendInt32Slab(buf, g.durIdx)
	buf = appendInt32Slab(buf, g.slotOf)
	buf = appendInt32Slab(buf, g.parentStart)
	buf = appendInt32Slab(buf, g.parents)
	return buf, nil
}

// artifactReader walks an artifact payload, latching the first failure so
// callers can read a whole section and check err once. Every read bounds
// itself against the remaining bytes before allocating.
type artifactReader struct {
	data []byte
	off  int
	bad  bool
}

func (r *artifactReader) fail() {
	r.bad = true
}

func (r *artifactReader) u8() byte {
	if r.bad || r.off >= len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *artifactReader) u32() uint32 {
	if r.bad || r.off+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *artifactReader) u64() uint64 {
	if r.bad || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// count reads a u64 section length and rejects anything that cannot
// possibly fit in the remaining payload (each element costs at least one
// byte), bounding every downstream allocation by len(data).
func (r *artifactReader) count() int {
	v := r.u64()
	if r.bad || v > uint64(len(r.data)-r.off) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *artifactReader) str() string {
	n := int(r.u32())
	if r.bad || n < 0 || r.off+n > len(r.data) {
		r.fail()
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

// align4 skips the zero padding the encoder inserted before a 4-aligned
// section.
func (r *artifactReader) align4() {
	pad := (4 - r.off%4) % 4
	if r.bad || r.off+pad > len(r.data) {
		r.fail()
		return
	}
	r.off += pad
}

// i32Slab returns the next n little-endian int32s. On a little-endian host
// with the section 4-aligned in memory — the encoder pads sections so any
// heap-backed buffer qualifies — the slab is a pointer reinterpretation of
// the payload bytes: zero copies, zero allocations, which is what makes a
// disk load O(#slabs) instead of O(bytes). The copying path remains as the
// fallback for big-endian hosts and unaligned buffers (e.g. fuzzed
// subslices).
func (r *artifactReader) i32Slab(n int) []int32 {
	if r.bad || n < 0 || n > (len(r.data)-r.off)/4 {
		r.fail()
		return nil
	}
	if n == 0 {
		return []int32{}
	}
	base := &r.data[r.off]
	if hostLittle && uintptr(unsafe.Pointer(base))%4 == 0 {
		out := unsafe.Slice((*int32)(unsafe.Pointer(base)), n)
		r.off += 4 * n
		return out
	}
	out := make([]int32, n)
	if hostLittle {
		copy(int32Bytes(out), r.data[r.off:r.off+4*n])
	} else {
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(r.data[r.off+4*i:]))
		}
	}
	r.off += 4 * n
	return out
}

// UnmarshalArtifact decodes a payload produced by MarshalArtifact into a
// structural Graph equivalent to the freshly lowered one: same tasks in the
// same dispatch order, same parents CSR, same descriptor table. Any
// malformed input — including one Bind or Replay could not run, such as a
// parent that does not precede its task, or a comm task on a stream Lower
// never issues it on — returns ErrBadArtifact.
//
// The returned Graph aliases data where alignment allows: the caller must
// not modify the payload afterwards. The artifact store reads a fresh
// buffer per load, so it satisfies this for free.
func UnmarshalArtifact(data []byte) (*Graph, error) {
	r := &artifactReader{data: data}
	if v := r.u32(); r.bad || v != EncodingVersion {
		return nil, fmt.Errorf("%w: version", ErrBadArtifact)
	}
	g := &Graph{}
	g.Model = model.Config{
		Name:   r.str(),
		Hidden: int(int64(r.u64())),
		Layers: int(int64(r.u64())),
		SeqLen: int(int64(r.u64())),
		Heads:  int(int64(r.u64())),
		Vocab:  int(int64(r.u64())),
	}
	g.Devices = int(int64(r.u64()))
	nTasks := r.count()
	nEdges := r.count()
	nDescs := r.count()
	if r.bad || nTasks < 1 || g.Devices < 1 || g.Devices > nTasks {
		return nil, fmt.Errorf("%w: header", ErrBadArtifact)
	}
	// Bind divides and sizes by the model's dimensions, so a model that
	// could not have been lowered must not load.
	if g.Model.Validate() != nil {
		return nil, fmt.Errorf("%w: model", ErrBadArtifact)
	}

	if nDescs > (len(r.data)-r.off)/33 {
		return nil, fmt.Errorf("%w: descriptor count", ErrBadArtifact)
	}
	g.descs = make([]durDesc, nDescs)
	// onStream[di] is where descriptor di's tasks may run: slot&mask ==
	// want. Lower issues every comm task on a comm stream, and a pipeline
	// transfer on its receiving stage's, which BindContention's
	// private-class rule relies on.
	onStream := make([]struct{ mask, want int32 }, nDescs)
	for i := range g.descs {
		d := &g.descs[i]
		d.kind = descKind(r.u8())
		d.op = profiler.OpKind(int64(r.u64()))
		d.kernel = int32(r.u32())
		d.stageParams = r.u64()
		d.buckets = int32(r.u32())
		d.from = int32(r.u32())
		d.to = int32(r.u32())
		if r.bad {
			return nil, fmt.Errorf("%w: descriptors", ErrBadArtifact)
		}
		switch d.kind {
		case descOperator, descKernel:
			// Kernel counts are fixed per operator kind (and zero for an
			// unknown one), so this bounds Bind's kernel lookup exactly.
			if d.kernel < 0 || int(d.kernel) >= profiler.KernelCount(d.op) {
				return nil, fmt.Errorf("%w: descriptor kernel", ErrBadArtifact)
			}
		case descAllReduceTP:
			onStream[i].mask, onStream[i].want = 1, int32(CommStream)
		case descAllReduceDP:
			if d.buckets < 1 {
				return nil, fmt.Errorf("%w: descriptor buckets", ErrBadArtifact)
			}
			onStream[i].mask, onStream[i].want = 1, int32(CommStream)
		case descP2P:
			if d.from < 0 || int(d.from) >= g.Devices || d.to < 0 || int(d.to) >= g.Devices {
				return nil, fmt.Errorf("%w: descriptor stages", ErrBadArtifact)
			}
			onStream[i].mask, onStream[i].want = -1, 2*d.to+int32(CommStream)
		default:
			return nil, fmt.Errorf("%w: descriptor kind", ErrBadArtifact)
		}
	}
	g.indexClasses()

	r.align4()
	g.durIdx = r.i32Slab(nTasks)
	g.slotOf = r.i32Slab(nTasks)
	g.parentStart = r.i32Slab(nTasks + 1)
	g.parents = r.i32Slab(nEdges)
	if r.bad || r.off != len(r.data) {
		return nil, fmt.Errorf("%w: truncated or trailing bytes", ErrBadArtifact)
	}
	// Index validation: everything the replay loop and Bind will
	// dereference must be in range. Every parent preceding its task both
	// bounds each edge and proves the graph acyclic, in dispatch order.
	parentStart, parents := g.parentStart, g.parents
	if parentStart[0] != 0 || int(parentStart[nTasks]) != nEdges {
		return nil, fmt.Errorf("%w: adjacency bounds", ErrBadArtifact)
	}
	// Parents row by row: each row starts where the last ended and lists
	// only tasks before its own.
	lo := int32(0)
	for i, hi := range parentStart[1:] {
		if hi < lo || int(hi) > nEdges {
			return nil, fmt.Errorf("%w: adjacency order", ErrBadArtifact)
		}
		// Most rows hold one parent; test it without a loop.
		if hi == lo+1 {
			if p := parents[lo]; uint32(p) >= uint32(i) {
				return nil, fmt.Errorf("%w: parent %d of task %d does not precede it", ErrBadArtifact, p, i)
			}
		} else {
			for _, p := range parents[lo:hi] {
				if uint32(p) >= uint32(i) {
					return nil, fmt.Errorf("%w: parent %d of task %d does not precede it", ErrBadArtifact, p, i)
				}
			}
		}
		lo = hi
	}
	slotOf, slots := g.slotOf[:nTasks], uint32(2*g.Devices)
	for i, di := range g.durIdx {
		slot := slotOf[i]
		if uint32(di) >= uint32(nDescs) || uint32(slot) >= slots {
			return nil, fmt.Errorf("%w: task indices", ErrBadArtifact)
		}
		if on := onStream[di]; slot&on.mask != on.want {
			return nil, fmt.Errorf("%w: comm task %d off its stream", ErrBadArtifact, i)
		}
	}
	return g, nil
}
