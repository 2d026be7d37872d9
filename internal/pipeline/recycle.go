package pipeline

import (
	"sync"
	"unsafe"
)

// docBufs recycles the byte buffers bulk documents are decoded into. A
// source takes one per document (getDocBuf) and the task carries it; the
// engine's emitter hands it back (putDocBuf) once the task's outcome is
// written, so a long run reuses a window's worth of buffers instead of
// allocating one copy of every document.
var docBufs sync.Pool // of *[]byte

// recycleHook, when set (tests only), sees every buffer handed back before
// it returns to the pool — the poisoned-recycle test overwrites it, so any
// reader still holding a view of the document reads junk.
var recycleHook func(buf []byte)

// getDocBuf returns a buffer of length n: a recycled one when the pool holds
// one large enough, else a fresh one of exactly n bytes. A recycled buffer
// too small for n is dropped, so the pool drifts toward the corpus's larger
// documents.
func getDocBuf(n int) *[]byte {
	if p, _ := docBufs.Get().(*[]byte); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n)
	return &b
}

// putDocBuf hands a document buffer back to the pool; nil is a no-op. The
// caller must hold no view of it any longer.
func putDocBuf(p *[]byte) {
	if p == nil {
		return
	}
	if recycleHook != nil {
		recycleHook(*p)
	}
	docBufs.Put(p)
}

// docView returns a string view sharing b's backing array — the same
// zero-copy conversion as core's bytesView, and the pipeline's only one.
// The view is valid until b is handed back with putDocBuf.
func docView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
