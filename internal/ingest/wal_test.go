package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ps3/internal/fault"
)

func frames(payloads ...[]byte) []byte {
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	return buf
}

func TestReadWALRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte("second record"), bytes.Repeat([]byte{0xEE}, 4096)}
	buf := frames(payloads...)
	records, clean, err := ReadWAL(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if clean != int64(len(buf)) {
		t.Fatalf("clean offset %d, want %d", clean, len(buf))
	}
	if len(records) != len(payloads) {
		t.Fatalf("got %d records, want %d", len(records), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(records[i], payloads[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestReadWALTornTail cuts a valid log at every possible byte offset: the
// scan must return exactly the records whose frames survive whole, with
// clean at the end of the last intact frame, and never an error — a torn
// tail is the normal shape of a crash-cut log.
func TestReadWALTornTail(t *testing.T) {
	payloads := [][]byte{[]byte("one"), []byte("twotwo"), []byte("threethree")}
	buf := frames(payloads...)
	// Frame boundaries: offsets where a prefix holds exactly k records.
	bounds := []int64{0}
	for _, p := range payloads {
		bounds = append(bounds, bounds[len(bounds)-1]+int64(frameHeader)+int64(len(p)))
	}
	for cut := 0; cut <= len(buf); cut++ {
		records, clean, err := ReadWAL(bytes.NewReader(buf[:cut]))
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		wantK := 0
		for k := range bounds {
			if bounds[k] <= int64(cut) {
				wantK = k
			}
		}
		if len(records) != wantK {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(records), wantK)
		}
		if clean != bounds[wantK] {
			t.Fatalf("cut %d: clean %d, want %d", cut, clean, bounds[wantK])
		}
	}
}

func TestReadWALBadCRC(t *testing.T) {
	buf := frames([]byte("good"), []byte("corrupted"), []byte("after"))
	// Flip a payload byte of the second record.
	off := frameHeader + len("good") + frameHeader
	buf[off] ^= 0xFF
	records, clean, err := ReadWAL(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0]) != "good" {
		t.Fatalf("got %d records, want only the first", len(records))
	}
	if want := int64(frameHeader + len("good")); clean != want {
		t.Fatalf("clean %d, want %d", clean, want)
	}
}

func TestReadWALOversizedAndZeroLength(t *testing.T) {
	good := frames([]byte("keep"))
	for _, n := range []uint32{0, MaxRecordBytes + 1, 0xFFFFFFFF} {
		buf := append([]byte(nil), good...)
		var h [frameHeader]byte
		binary.LittleEndian.PutUint32(h[0:4], n)
		buf = append(buf, h[:]...)
		records, clean, err := ReadWAL(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("length %d: %v", n, err)
		}
		if len(records) != 1 {
			t.Fatalf("length %d: got %d records, want 1", n, len(records))
		}
		if clean != int64(len(good)) {
			t.Fatalf("length %d: clean %d, want %d", n, clean, len(good))
		}
	}
}

func TestWALAppendDurableAndReadBack(t *testing.T) {
	for _, window := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := OpenWALFS(fault.OS, path, window)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			for i := 0; i < 20; i++ {
				p := []byte(fmt.Sprintf("record-%03d", i))
				want = append(want, p)
				if err := w.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			// Durability check before Close: the file must already hold
			// every acknowledged record.
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			records, _, err := ReadWAL(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != len(want) {
				t.Fatalf("got %d records on disk before close, want %d", len(records), len(want))
			}
			for i := range want {
				if !bytes.Equal(records[i], want[i]) {
					t.Fatalf("record %d mismatch", i)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWALGroupCommitConcurrent hammers one log from many goroutines: every
// acknowledged record must be on disk, in a single sequence (no
// interleaved/torn frames), with all records present.
func TestWALGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWALFS(fault.OS, path, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) { //lint:nakedgo-ok test drives concurrent appenders; joined on wg below
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := w.Append([]byte(fmt.Sprintf("w%d-%04d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := ReadWAL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != workers*perWorker {
		t.Fatalf("got %d records, want %d", len(records), workers*perWorker)
	}
	seen := make(map[string]bool, len(records))
	for _, r := range records {
		seen[string(r)] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("got %d distinct records, want %d", len(seen), workers*perWorker)
	}
}

func TestWALClosedAppendFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWALFS(fault.OS, path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("after")); err == nil {
		t.Fatal("append to closed wal must fail")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestWALEnqueueValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWALFS(fault.OS, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Enqueue(nil); err == nil {
		t.Fatal("empty record must be rejected")
	}
	if _, err := w.Enqueue(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized record must be rejected")
	}
}
