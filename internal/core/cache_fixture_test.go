package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clear/internal/bench"
	"clear/internal/inject"
)

// committedCache is the campaign cache committed with the repository.
const committedCache = "../../testdata/cache"

// fixtureVariants maps the campaign tags present in the committed cache to
// the variants whose programs they were recorded on.
var fixtureVariants = map[string]Variant{
	"base":    {},
	"abftd":   {ABFT: ABFTDet},
	"eddisrb": {SW: []SWTechnique{SWEDDI}, EDDISrb: true},
}

// payload strips a valid 8-byte CLRC integrity trailer ("CLRC" and the
// little-endian CRC32-C of the payload) from a cache entry. Entries written
// before the trailer existed are all payload.
func payload(data []byte) []byte {
	n := len(data)
	if n >= 8 && string(data[n-8:n-4]) == "CLRC" &&
		binary.LittleEndian.Uint32(data[n-4:]) == crc32.Checksum(data[:n-8], crc32.MakeTable(crc32.Castagnoli)) {
		return data[:n-8]
	}
	return data
}

// TestCommittedCacheReproduces makes the committed campaign cache an
// oracle: every entry must decode, be filed under the cache key of its own
// configuration and the rebuilt program, and equal a fresh inject.Run both
// as a Result and byte for byte as a gob payload (entries that carry the
// CLRC integrity trailer must carry a valid one). The fixture is read in
// place and never written.
func TestCommittedCacheReproduces(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(committedCache, "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no committed cache entries under %s", committedCache)
	}
	engines := map[inject.CoreKind]*Engine{}
	for _, path := range paths {
		name := filepath.Base(path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want inject.Result
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
			t.Errorf("%s: does not decode: %v", name, err)
			continue
		}
		cfg := want.Config
		v, ok := fixtureVariants[cfg.Tag]
		if !ok {
			t.Errorf("%s: no variant known for tag %q", name, cfg.Tag)
			continue
		}
		b := bench.ByName(cfg.Bench)
		if b == nil {
			t.Errorf("%s: unknown benchmark %q", name, cfg.Bench)
			continue
		}
		e := engines[cfg.Core]
		if e == nil {
			e = NewEngine(cfg.Core)
			engines[cfg.Core] = e
		}
		p, err := e.BuildProgram(b, v)
		if err != nil {
			t.Fatal(err)
		}
		if key := inject.CacheKey(cfg, p); key != name {
			t.Errorf("%s: filed under the wrong key; its config and program give %s", name, key)
			continue
		}
		got, err := inject.Run(cfg, p, v.hookFactory())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: fresh campaign differs: totals %+v, committed %+v", name, got.Totals, want.Totals)
			continue
		}
		var enc bytes.Buffer
		if err := gob.NewEncoder(&enc).Encode(got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), payload(data)) {
			t.Errorf("%s: gob encoding of the fresh campaign differs from the committed payload", name)
		}
	}
}
