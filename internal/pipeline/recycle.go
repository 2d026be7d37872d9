package pipeline

import (
	"sync"
	"unsafe"
)

// docBufs recycles the byte buffers documents are decoded into. A bulk
// source takes one per document (getDocBuf) and the task carries it; the
// engine's emitter hands it back (PutDocBuf) once the task's outcome is
// written, so a long run reuses a window's worth of buffers instead of
// allocating one copy of every document. A /v1/discover body's document
// comes from the same pool (EnvelopeDecoder.Request) and its handler hands
// it back once the reply is written.
var docBufs sync.Pool // of *[]byte

// MaxPooledBytes bounds the buffers a pool keeps: docBufs and the HTTP
// request-body pool drop anything larger when it is handed back, so one
// large document does not pin its size for every later request.
const MaxPooledBytes = 1 << 20

// recycleHook, when set (tests only), sees every buffer handed back before
// it returns to the pool — the poisoned-recycle tests overwrite it, so any
// reader still holding a view of the document reads junk. httpapi's tests
// reach it through go:linkname, so it needs no exported setter.
//
//go:linkname recycleHook
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

// PutDocBuf hands a document buffer back to the pool; nil is a no-op, and a
// buffer larger than MaxPooledBytes is left to the collector. The caller
// must hold no view of it any longer.
func PutDocBuf(p *[]byte) {
	if p == nil {
		return
	}
	if recycleHook != nil {
		recycleHook(*p)
	}
	if cap(*p) <= MaxPooledBytes {
		docBufs.Put(p)
	}
}

// docView returns a string view sharing b's backing array — the same
// zero-copy conversion as core's bytesView, and the pipeline's only one.
// The view is valid until b is handed back with PutDocBuf.
func docView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
