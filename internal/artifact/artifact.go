// Package artifact implements the persistent, content-addressed tier of
// the simulator's structural cache: lowered task graphs and the profiler's
// operator table, serialized to flat checksummed files so a fresh process
// (a restarted vtrain-server, a one-shot CLI run) starts warm instead of
// re-paying work any prior process already did — the same idea as the
// compiled-artifact caches of production ML compilers.
//
// Files are addressed by the hex SHA-256 of their logical key (shape key,
// fidelity, encoding version, build ID), so a key change — new code, new
// encoding — simply misses and re-lowers; nothing is ever invalidated in
// place. Every file carries a magic, a container format version, a kind
// tag, and a CRC-32C of its payload (corruption detection, not
// authentication: loads must run at memory speed, and Castagnoli CRC is
// hardware-accelerated while still catching truncation, bit flips, and
// torn writes). Any mismatch — truncation, bit flips, version skew, a
// concurrent writer's partial file — makes the load a silent miss, never
// an error: the caller falls back to lowering, exactly as if the file did
// not exist.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"vtrain/internal/taskgraph"
)

// FormatVersion is the on-disk container version: magic, header, checksum
// framing. The payload encodings carry their own versions on top
// (taskgraph.EncodingVersion, OpsEncodingVersion).
const FormatVersion = 1

const (
	magic      = "VTRNART\x01"
	headerSize = 8 + 4 + 4 + 8 + 4

	kindGraph uint32 = 1
	kindOps   uint32 = 2
)

// castagnoli is the CRC-32C table; SSE4.2 / ARMv8 hosts compute it in
// hardware, so checksumming never dominates a warm load.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is one on-disk artifact directory plus its load/store counters.
// All methods are safe for concurrent use; a Store is shared by every
// simulator of a tree (a core.New root and its ForCluster siblings), so the
// counters are store-wide totals.
type Store struct {
	dir                  string
	hits, misses, writes atomic.Uint64
}

// Stats is a snapshot of the store's counters. Hits and misses count load
// attempts (a corrupt or version-skewed file is a miss); writes count
// successfully persisted artifacts.
type Stats struct {
	Hits, Misses, Writes uint64
}

// Open creates (if needed) and opens the artifact directory. Unlike loads
// and saves, an unusable directory is a loud error: the caller asked for
// persistence and should hear that it cannot have it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the directory the store persists into.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's counters; a nil store (no persistent tier)
// reports zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Writes: s.writes.Load()}
}

// Key hashes the given key parts into the store's content address. Parts
// are length-prefixed before hashing, so no two distinct part lists
// collide by concatenation.
func Key(parts ...string) string {
	h := sha256.New()
	var lenbuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(p)))
		h.Write(lenbuf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

var buildIDOnce = sync.OnceValue(func() string {
	id := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				id += "-" + st.Value
			case "vcs.modified":
				if st.Value == "true" {
					id += "-dirty"
				}
			}
		}
	}
	return id
})

// BuildID identifies the running binary for cache-key purposes: the Go
// toolchain version plus the VCS revision (and a dirty marker) when the
// binary carries build info. Two binaries built from the same revision
// lower identical structures, so their artifacts are interchangeable;
// anything else gets a different key and misses.
func BuildID() string { return buildIDOnce() }

// LoadGraph loads the structural graph stored under key, reporting false
// — and counting a miss — if the file is absent, corrupt, or from a
// different format/encoding version.
func (s *Store) LoadGraph(key string) (*taskgraph.Graph, bool) {
	payload, ok := s.read(graphFile(key), kindGraph)
	if ok {
		if g, err := taskgraph.UnmarshalArtifact(payload); err == nil {
			s.hits.Add(1)
			return g, true
		}
	}
	s.misses.Add(1)
	return nil, false
}

// SaveGraph persists a lowered structural graph under key, as one file.
// Failures are reported, not returned as errors: persistence is an
// optimization, and a full disk must not fail the simulation that produced
// the graph.
func (s *Store) SaveGraph(key string, g *taskgraph.Graph) bool {
	payload, err := g.MarshalArtifact()
	if err != nil || !s.write(graphFile(key), kindGraph, payload) {
		return false
	}
	s.writes.Add(1)
	return true
}

func graphFile(key string) string { return "g-" + key }
func opsFile(key string) string   { return "ops-" + key }

// read loads and unframes one artifact file; any problem is a silent miss.
func (s *Store) read(name string, kind uint32) ([]byte, bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, false
	}
	if len(data) < headerSize || string(data[:8]) != magic {
		return nil, false
	}
	ver := binary.LittleEndian.Uint32(data[8:12])
	k := binary.LittleEndian.Uint32(data[12:16])
	plen := binary.LittleEndian.Uint64(data[16:24])
	if ver != FormatVersion || k != kind {
		return nil, false
	}
	payload := data[headerSize:]
	if uint64(len(payload)) != plen {
		return nil, false
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[24:headerSize]) {
		return nil, false
	}
	return payload, true
}

// write frames and atomically persists one artifact file (temp file +
// rename), so concurrent readers only ever see complete files.
func (s *Store) write(name string, kind uint32, payload []byte) bool {
	buf := make([]byte, headerSize, headerSize+len(payload))
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[8:12], FormatVersion)
	binary.LittleEndian.PutUint32(buf[12:16], kind)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[24:headerSize], crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)

	f, err := os.CreateTemp(s.dir, name+".tmp-*")
	if err != nil {
		return false
	}
	_, werr := f.Write(buf)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(f.Name())
		return false
	}
	if err := os.Rename(f.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(f.Name())
		return false
	}
	return true
}
