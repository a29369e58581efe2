package stats

import (
	"reflect"
	"runtime"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the synopsis decoder, which every
// store open runs on a file from disk. It must never panic; a synopsis it
// accepts must re-encode and decode to a deeply equal value; and what it
// allocates must stay proportional to the input, so a length or count
// field is never trusted before the bytes it describes are known to be
// there.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(buildSample()))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Decode(data)
		runtime.ReadMemStats(&after)
		// Decoding allocates about twice the bytes it consumes (map
		// entries, one struct per tag and path); the slack absorbs
		// concurrent runtime allocations.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(data))+64<<10; alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		again, err := Decode(Encode(s))
		if err != nil {
			t.Fatalf("re-encoded synopsis does not decode: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("re-encoded synopsis decodes differently:\n first %+v\n again %+v", s, again)
		}
	})
}
