package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"famedb/internal/osal"
)

func newTestFile(t *testing.T) osal.File {
	t.Helper()
	f, err := osal.NewMemFS().Create("test.db")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCreateOpenPageFile(t *testing.T) {
	f := newTestFile(t)
	pf, err := CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	if pf.PageSize() != 512 || pf.NumPages() != 1 {
		t.Fatalf("fresh file: size %d pages %d", pf.PageSize(), pf.NumPages())
	}
	id, err := pf.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 512)
	copy(page, "page-content")
	if err := pf.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}

	// Reopen and read back.
	pf2, err := OpenPageFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if pf2.PageSize() != 512 || pf2.NumPages() != 2 {
		t.Fatalf("reopened: size %d pages %d", pf2.PageSize(), pf2.NumPages())
	}
	got := make([]byte, 512)
	if err := pf2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("page content lost across reopen")
	}
}

func TestPageFileBadPageSize(t *testing.T) {
	// 64 KiB is refused: a B+-tree node stores its cell-area start in a
	// uint16, which that page size wraps to 0.
	for _, size := range []int{0, 63, 65, 64 << 10, 1 << 20} {
		if _, err := CreatePageFile(newTestFile(t), size); err == nil {
			t.Errorf("CreatePageFile(%d) should fail", size)
		}
	}
}

func TestOpenPageFileBadPageSize(t *testing.T) {
	f := newTestFile(t)
	if _, err := CreatePageFile(f, 4096); err != nil {
		t.Fatal(err)
	}
	var size [4]byte
	binary.LittleEndian.PutUint32(size[:], 64<<10)
	if _, err := f.WriteAt(size[:], 8); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPageFile(f); err == nil || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("OpenPageFile on a header claiming 64 KiB pages = %v, want a corrupt page size error", err)
	}
}

func TestOpenPageFileBadMagic(t *testing.T) {
	f := newTestFile(t)
	f.WriteAt([]byte("NOTAFILE............"), 0)
	if _, err := OpenPageFile(f); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestAllocZeroesFreedPages(t *testing.T) {
	f := newTestFile(t)
	pf, _ := CreatePageFile(f, 128)
	id, _ := pf.Alloc()
	dirty := make([]byte, 128)
	for i := range dirty {
		dirty[i] = 0xAA
	}
	pf.WritePage(id, dirty)
	if err := pf.Free(id); err != nil {
		t.Fatal(err)
	}
	id2, err := pf.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("free list did not reuse page: got %d, want %d", id2, id)
	}
	got := make([]byte, 128)
	pf.ReadPage(id2, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("reused page not zeroed")
		}
	}
	// No growth: page count unchanged after free+alloc cycle.
	if pf.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", pf.NumPages())
	}
}

func TestFreeListSurvivesReopen(t *testing.T) {
	f := newTestFile(t)
	pf, _ := CreatePageFile(f, 128)
	a, _ := pf.Alloc()
	b, _ := pf.Alloc()
	pf.Free(a)
	pf.Free(b)
	pf.Sync()

	pf2, err := OpenPageFile(f)
	if err != nil {
		t.Fatal(err)
	}
	// Both freed pages come back before the file grows.
	x, _ := pf2.Alloc()
	y, _ := pf2.Alloc()
	if (x != a && x != b) || (y != a && y != b) || x == y {
		t.Fatalf("free list lost: got %d,%d want {%d,%d}", x, y, a, b)
	}
	if pf2.NumPages() != 3 {
		t.Fatalf("NumPages = %d, want 3", pf2.NumPages())
	}
}

func TestPageAccessValidation(t *testing.T) {
	pf, _ := CreatePageFile(newTestFile(t), 128)
	buf := make([]byte, 128)
	if err := pf.ReadPage(0, buf); !errors.Is(err, ErrBadPage) {
		t.Errorf("reading header page = %v, want ErrBadPage", err)
	}
	if err := pf.ReadPage(99, buf); !errors.Is(err, ErrBadPage) {
		t.Errorf("reading unallocated page = %v, want ErrBadPage", err)
	}
	id, _ := pf.Alloc()
	if err := pf.WritePage(id, make([]byte, 64)); err == nil {
		t.Error("short buffer write should fail")
	}
	if err := pf.ReadPage(id, make([]byte, 256)); err == nil {
		t.Error("long buffer read should fail")
	}
}

func TestClosedPageFile(t *testing.T) {
	pf, _ := CreatePageFile(newTestFile(t), 128)
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Alloc(); err == nil {
		t.Error("Alloc after close should fail")
	}
	if err := pf.Sync(); err == nil {
		t.Error("Sync after close should fail")
	}
	if err := pf.Close(); err == nil {
		t.Error("double close should fail")
	}
}

func TestManyPagesStressAllocFree(t *testing.T) {
	pf, _ := CreatePageFile(newTestFile(t), 128)
	var ids []PageID
	for i := 0; i < 100; i++ {
		id, err := pf.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Free every other page, then reallocate: count must not grow.
	for i := 0; i < len(ids); i += 2 {
		if err := pf.Free(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := pf.NumPages()
	for i := 0; i < 50; i++ {
		if _, err := pf.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if pf.NumPages() != before {
		t.Fatalf("file grew from %d to %d pages despite free list", before, pf.NumPages())
	}
}
