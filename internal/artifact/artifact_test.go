package artifact

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
	"vtrain/internal/taskgraph"
)

// testGraph lowers one real structural graph — corruption tests must
// exercise the decoder against genuine encodings, not synthetic byte
// strings.
func testGraph(t testing.TB) *taskgraph.Graph {
	t.Helper()
	c := hw.PaperCluster(8)
	m := model.Config{Name: "tiny", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	og, err := opgraph.Build(m, plan, c)
	if err != nil {
		t.Fatal(err)
	}
	return taskgraph.Lower(og, profiler.New(gpu.NewDevice(c.Node.GPU)), taskgraph.OperatorLevel)
}

// TestStoreContentionEquivalence locks the contention fidelity level over
// the disk tier end to end: a graph saved to and reloaded from a Store
// must replay byte-identically to the original under contention — the
// store path adds framing, checksums, and zero-copy aliasing on top of the
// codec, and none of it may perturb the contended schedule.
func TestStoreContentionEquivalence(t *testing.T) {
	c := hw.PaperCluster(8)
	m := model.Config{Name: "tiny", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	og, err := opgraph.Build(m, plan, c)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	g := taskgraph.Lower(og, prof, taskgraph.OperatorLevel)

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("contention-equivalence")
	if !st.SaveGraph(key, g) {
		t.Fatal("SaveGraph failed")
	}
	got, ok := st.LoadGraph(key)
	if !ok {
		t.Fatal("LoadGraph failed")
	}

	cm := comm.NewModel(c)
	tbl := g.Bind(prof, cm, plan, c)
	gtbl := got.Bind(prof, cm, plan, c)
	ref, err := g.Replay(tbl, g.BindContention(plan, c, tbl))
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Replay(gtbl, got.BindContention(plan, c, gtbl))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("contended replay of store-loaded graph = %+v, want %+v", res, ref)
	}
}

func TestKeyIsLengthPrefixed(t *testing.T) {
	if Key("a", "b") != Key("a", "b") {
		t.Fatal("Key is not deterministic")
	}
	if Key("a", "b") == Key("ab") {
		t.Fatal("concatenation collides")
	}
	if Key("a", "b") == Key("a", "b", "") {
		t.Fatal("trailing empty part collides")
	}
}

// assertGraphEquivalent verifies a store-loaded graph reproduces the saved
// one: every slab, so task for task and, through the parents CSR, edge for
// edge in the same dispatch order.
func assertGraphEquivalent(t *testing.T, got, want *taskgraph.Graph) {
	t.Helper()
	if got.NumTasks() != want.NumTasks() {
		t.Fatalf("loaded graph has %d tasks, want %d", got.NumTasks(), want.NumTasks())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("loaded graph's slabs differ from the saved one's")
	}
}

func TestGraphRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	key := Key("graph", "test")

	if _, ok := st.LoadGraph(key); ok {
		t.Fatal("load from an empty store succeeded")
	}
	if !st.SaveGraph(key, g) {
		t.Fatal("save failed")
	}
	got, ok := st.LoadGraph(key)
	if !ok {
		t.Fatal("load after save missed")
	}
	// One graph save writes one file.
	if s := st.Stats(); s != (Stats{Hits: 1, Misses: 1, Writes: 1}) {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 write", s)
	}
	if files, err := os.ReadDir(st.Dir()); err != nil || len(files) != 1 || files[0].Name() != graphFile(key) {
		t.Fatalf("store directory holds %v (err %v), want just %s", files, err, graphFile(key))
	}
	assertGraphEquivalent(t, got, g)

	// A second store over the same directory starts cold on counters but
	// warm on content: the cross-process case.
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.LoadGraph(key); !ok {
		t.Fatal("fresh store over the same directory missed")
	}
}

func TestOperatorsRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := []profiler.TableEntry{
		{
			Key: profiler.Key{Kind: profiler.FwdMHA, Hidden: 256, SeqLen: 128, Heads: 4, MicroBatch: 1, Tensor: 2},
			Tasks: []profiler.Task{
				{Kernel: gpu.Kernel{Name: "gemm_qkv", Duration: 1e-5, FLOPs: 3e9, Bytes: 2e6}, Duration: 1.5e-5},
				{Kernel: gpu.Kernel{Name: "softmax", Duration: 2e-6, Bytes: 1e6}, Duration: 2e-6},
			},
		},
		{
			Key:   profiler.Key{Kind: profiler.WeightUpdate, Params: 1 << 30},
			Tasks: []profiler.Task{{Kernel: gpu.Kernel{Name: "adam"}, Duration: 4e-4}},
		},
	}
	key := Key("ops", "test")
	if _, ok := st.LoadOperators(key); ok {
		t.Fatal("load from an empty store succeeded")
	}
	if !st.SaveOperators(key, entries) {
		t.Fatal("save failed")
	}
	got, ok := st.LoadOperators(key)
	if !ok {
		t.Fatal("load after save missed")
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("loaded table = %+v, want %+v", got, entries)
	}
}

// TestCorruptArtifactsAreMisses mangles every byte region of a stored
// artifact — magic, container version, kind tag, length, checksum, payload,
// truncations — and requires each mangled file to load as a silent miss,
// after which a re-save must fully recover the entry. A corrupt cache may
// cost time; it must never cost correctness or crash the process.
func TestCorruptArtifactsAreMisses(t *testing.T) {
	g := testGraph(t)
	key := Key("graph", "corruption")
	path := func(st *Store) string { return filepath.Join(st.Dir(), graphFile(key)) }

	mangles := []struct {
		name string
		fn   func(data []byte) []byte
	}{
		{"empty file", func(data []byte) []byte { return nil }},
		{"truncated header", func(data []byte) []byte { return data[:headerSize-1] }},
		{"truncated payload", func(data []byte) []byte { return data[:len(data)-1] }},
		{"flipped magic", flipByte(0)},
		{"flipped container version", flipByte(8)},
		{"flipped kind tag", flipByte(12)},
		{"flipped payload length", flipByte(16)},
		{"flipped checksum", flipByte(24)},
		{"flipped payload start", flipByte(headerSize)},
		{"flipped payload middle", func(data []byte) []byte {
			data[headerSize+(len(data)-headerSize)/2] ^= 0x40
			return data
		}},
		{"flipped payload end", func(data []byte) []byte {
			data[len(data)-1] ^= 0x01
			return data
		}},
	}
	for _, m := range mangles {
		t.Run(m.name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !st.SaveGraph(key, g) {
				t.Fatal("save failed")
			}
			data, err := os.ReadFile(path(st))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path(st), m.fn(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.LoadGraph(key); ok {
				t.Fatal("corrupt artifact loaded successfully")
			}
			// Recovery: the slot is re-writable and serves again.
			if !st.SaveGraph(key, g) {
				t.Fatal("re-save over the corrupt file failed")
			}
			got, ok := st.LoadGraph(key)
			if !ok {
				t.Fatal("re-saved artifact did not recover")
			}
			assertGraphEquivalent(t, got, g)
		})
	}
}

func flipByte(off int) func([]byte) []byte {
	return func(data []byte) []byte {
		data[off] ^= 0x80
		return data
	}
}

// TestPayloadVersionSkewIsMiss re-frames a payload whose *encoding* version
// is from the future with a correct container checksum: the container
// validates, the payload decoder must still reject it as a miss.
func TestPayloadVersionSkewIsMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	payload, err := g.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	payload[0] ^= 0xFF // encoding version is the payload's first u32
	if !st.write(graphFile("skew"), kindGraph, payload) {
		t.Fatal("framed write failed")
	}
	if _, ok := st.LoadGraph("skew"); ok {
		t.Fatal("version-skewed payload loaded successfully")
	}
}

// TestKindConfusionIsMiss stores an operator table, then asks for it as a
// graph: the kind tag must keep the two namespaces apart even under a key
// collision.
func TestKindConfusionIsMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := encodeOps(nil)
	if !st.write(graphFile("confused"), kindOps, payload) {
		t.Fatal("framed write failed")
	}
	if _, ok := st.LoadGraph("confused"); ok {
		t.Fatal("ops-kind artifact loaded as a graph")
	}
}
