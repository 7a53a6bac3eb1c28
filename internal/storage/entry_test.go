package storage

import (
	"errors"
	"testing"
	"unsafe"
)

// An entry is 48 bytes: the tombstone flag rides in version's top bit
// and the MVCC state sits behind one pointer.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 48 {
		t.Fatalf("sizeof(entry) = %d, want 48", got)
	}
}

// An MVCC delete followed by a resurrecting insert keeps every older
// snapshot readable: the tombstone becomes a retained version.
func TestDeleteAtResurrectKeepsSnapshots(t *testing.T) {
	s := NewStore()
	s.EnableMVCC()
	tbl := s.CreateTable(1, 1)
	steps := []func() error{
		func() error { return tbl.InsertAt(7, []byte("v1"), 1) },
		func() error { return tbl.PutAt(7, []byte("v2"), 2) },
		func() error { return tbl.DeleteAt(7, 3) },
		func() error { return tbl.InsertAt(7, []byte("v4"), 4) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	want := map[uint64]string{0: "", 1: "v1", 2: "v2", 3: "", 4: "v4", 9: "v4"}
	for ts, w := range want {
		v, err := tbl.ReadAt(7, ts)
		if w == "" {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("ReadAt(%d) = %q, %v; want ErrNotFound", ts, v, err)
			}
			continue
		}
		if err != nil || string(v) != w {
			t.Fatalf("ReadAt(%d) = %q, %v; want %q", ts, v, err, w)
		}
	}
	if d := tbl.ChainDepth(7); d != 3 {
		t.Fatalf("chain depth = %d, want 3", d)
	}
	if ts, err := tbl.VersionTS(7); err != nil || ts != 4 {
		t.Fatalf("VersionTS = %d, %v; want 4", ts, err)
	}
	// Under MVCC a tombstone slot of another key is never reused: its
	// chain must stay readable.
	if err := tbl.DeleteAt(7, 5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAt(8, []byte("w"), 6); err != nil {
		t.Fatal(err)
	}
	if v, err := tbl.ReadAt(7, 4); err != nil || string(v) != "v4" {
		t.Fatalf("ReadAt(4) after another key's insert = %q, %v; want v4", v, err)
	}
	if n := len(tbl.Bucket(7).entries); n != 2 {
		t.Fatalf("bucket holds %d entries, want 2 (tombstone kept)", n)
	}
}

// Get, Version, Range and RangeTS report the version counter without
// the tombstone flag, and skip tombstones.
func TestTombstoneBitHidden(t *testing.T) {
	s := NewStore()
	s.EnableMVCC()
	tbl := s.CreateTable(1, 4)
	if err := tbl.InsertAt(1, []byte("a"), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.DeleteAt(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAt(1, []byte("b"), 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAt(2, []byte("c"), 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.DeleteAt(2, 4); err != nil {
		t.Fatal(err)
	}
	b := tbl.Bucket(1)
	if _, ver, err := b.Get(1); err != nil || ver != 3 {
		t.Fatalf("Get version = %d, %v; want 3", ver, err)
	}
	if ver, err := b.Version(1); err != nil || ver != 3 {
		t.Fatalf("Version = %d, %v; want 3", ver, err)
	}
	if _, err := tbl.Bucket(2).Version(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Version of a deleted key: %v, want ErrNotFound", err)
	}
	n := 0
	tbl.Range(func(k Key, v []byte, ver uint64) bool {
		n++
		if k != 1 || string(v) != "b" || ver != 3 {
			t.Fatalf("Range yielded %d=%q v%d, want 1=\"b\" v3", k, v, ver)
		}
		return true
	})
	tbl.RangeTS(func(k Key, v []byte, ver, ts uint64) bool {
		n++
		if k != 1 || string(v) != "b" || ver != 3 || ts != 3 {
			t.Fatalf("RangeTS yielded %d=%q v%d ts%d, want 1=\"b\" v3 ts3", k, v, ver, ts)
		}
		return true
	})
	if n != 2 {
		t.Fatalf("Range+RangeTS yielded %d records, want 2", n)
	}
}

// A non-MVCC insert reuses a tombstone slot instead of growing the
// bucket, and buckets grow to exactly their entry count.
func TestInsertReusesTombstoneSlot(t *testing.T) {
	s := NewStore()
	tbl := s.CreateTable(1, 1)
	b := tbl.Bucket(0)
	for k := Key(0); k < bucketCapacity; k++ {
		if err := b.Insert(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
		if len(b.entries) != cap(b.entries) {
			t.Fatalf("after %d inserts len=%d cap=%d, want exact growth", k+1, len(b.entries), cap(b.entries))
		}
	}
	if err := b.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(100, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if b.ChainLength() != 1 || len(b.entries) != bucketCapacity {
		t.Fatalf("tombstone slot not reused: chain %d, entries %d", b.ChainLength(), len(b.entries))
	}
	if v, ver, err := b.Get(100); err != nil || string(v) != "new" || ver != 1 {
		t.Fatalf("Get(100) = %q v%d %v; want \"new\" v1", v, ver, err)
	}
	if _, _, err := b.Get(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
	// The non-MVCC stamped insert takes the same path.
	if err := b.Delete(4); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAt(101, []byte("stamped"), 9); err != nil {
		t.Fatal(err)
	}
	if ts, err := tbl.VersionTS(101); err != nil || ts != 9 || b.ChainLength() != 1 {
		t.Fatalf("InsertAt: ts %d, %v, chain %d; want ts 9 in the reused slot", ts, err, b.ChainLength())
	}
}
