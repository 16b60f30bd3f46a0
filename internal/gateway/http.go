package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"postlob/internal/adt"
	"postlob/internal/core"
	"postlob/internal/inversion"
	"postlob/internal/txn"
)

// The HTTP frontend is an S3-style object store over the Inversion file
// system: buckets are top-level directories, keys are file paths beneath
// them.
//
//	GET    /bucket/key    object body (Range: bytes=a-b supported → 206)
//	PUT    /bucket/key    create or replace (body streamed chunk by chunk)
//	HEAD   /bucket/key    metadata only
//	DELETE /bucket/key    remove (empty directories only)
//	GET    /bucket/       JSON listing from DIRECTORY/FILESTAT
//	PUT    /bucket/       create the directory
//
// Every GET/HEAD is a snapshot read: the server resolves a timestamp — the
// client's as-of (`asOf` query parameter, `X-As-Of` header, or a numeric
// `If-Unmodified-Since`) or the latest commit — and opens path and object
// as of it. No transaction is involved, which is exactly why a read-only
// replica serves GETs through the same code path as the primary. PUT and
// DELETE run in a per-request transaction and are refused with 403 on
// replicas.

// HTTPHandler returns the gateway's HTTP frontend.
func (g *Gateway) HTTPHandler() http.Handler {
	return http.HandlerFunc(g.serveHTTP)
}

// httpFS lazily opens the Inversion file system: bootstrapped in its own
// transaction on the primary, opened read-only on replicas (whose metadata
// classes arrive via WAL shipping from the primary). A replica's read-only
// file system is opened again, writable, once the replica is promoted.
func (g *Gateway) httpFS() (*inversion.FS, error) {
	g.fsMu.Lock()
	defer g.fsMu.Unlock()
	readOnly := g.role.ReadOnly()
	if g.fs != nil && (readOnly || !g.fsReadOnly) {
		return g.fs, nil
	}
	if readOnly {
		fs, err := inversion.OpenReadOnly(g.store, g.opts.FS)
		if err != nil {
			return nil, err
		}
		g.fs, g.fsReadOnly = fs, true
		return fs, nil
	}
	tx := g.store.Pool().Mgr.Begin()
	fs, err := inversion.Init(tx, g.store, g.opts.FS)
	if err != nil {
		tx.Abort()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	g.fs, g.fsReadOnly = fs, false
	return fs, nil
}

func (g *Gateway) serveHTTP(w http.ResponseWriter, r *http.Request) {
	obsHTTPReqs.Inc()
	obsHTTPInflight.Inc()
	defer obsHTTPInflight.Dec()

	path := r.URL.Path
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	wantDir := strings.HasSuffix(path, "/")

	switch r.Method {
	case http.MethodGet:
		g.httpGet(w, r, path, wantDir)
	case http.MethodHead:
		sw := httpHead.Start()
		g.httpStat(w, r, path)
		sw.Stop()
	case http.MethodPut:
		sw := httpPut.Start()
		g.httpPut(w, r, path, wantDir)
		sw.Stop()
	case http.MethodDelete:
		sw := httpDelete.Start()
		g.httpDelete(w, r, path)
		sw.Stop()
	default:
		httpFail(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not supported", r.Method))
	}
}

// httpFail writes an error status. Error bodies do not count toward
// gateway.http.bytes_out — that counter is the LOB-byte conservation law.
func httpFail(w http.ResponseWriter, status int, err error) {
	obsHTTPErrors.Inc()
	http.Error(w, err.Error(), status)
}

// failFS maps file-system errors onto HTTP statuses.
func failFS(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, inversion.ErrNotExist):
		httpFail(w, http.StatusNotFound, err)
	case errors.Is(err, inversion.ErrExist),
		errors.Is(err, inversion.ErrNotEmpty),
		errors.Is(err, inversion.ErrIsDir),
		errors.Is(err, inversion.ErrNotDir),
		errors.Is(err, inversion.ErrRootLocked):
		httpFail(w, http.StatusConflict, err)
	case errors.Is(err, inversion.ErrBadPath):
		httpFail(w, http.StatusBadRequest, err)
	case errors.Is(err, inversion.ErrNotInit):
		// A replica whose primary has not bootstrapped the FS yet.
		httpFail(w, http.StatusServiceUnavailable, err)
	default:
		httpFail(w, http.StatusInternalServerError, err)
	}
}

// resolveAsOf picks the snapshot timestamp for a read: the client's as-of
// if given, else the latest commit.
func (g *Gateway) resolveAsOf(r *http.Request) (txn.TS, bool, error) {
	raw := r.URL.Query().Get("asOf")
	if raw == "" {
		raw = r.Header.Get("X-As-Of")
	}
	if raw == "" {
		raw = r.Header.Get("If-Unmodified-Since")
	}
	if raw == "" {
		return g.store.Pool().Mgr.Now(), false, nil
	}
	n, err := strconv.ParseUint(strings.TrimSpace(raw), 10, 64)
	if err != nil {
		return txn.InvalidTS, false, fmt.Errorf("bad as-of timestamp %q", raw)
	}
	obsHTTPAsOf.Inc()
	return txn.TS(n), true, nil
}

// parseRange parses a single-range `Range: bytes=a-b` header against size.
// ok=false means no (or unsupported multi-part) range — serve the whole
// object; err means unsatisfiable → 416.
func parseRange(h string, size int64) (off, end int64, ok bool, err error) {
	if h == "" {
		return 0, size, false, nil
	}
	spec, found := strings.CutPrefix(strings.TrimSpace(h), "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, size, false, nil // unsupported unit or multi-range: ignore
	}
	lo, hi, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return 0, 0, false, fmt.Errorf("bad range %q", h)
	}
	if size == 0 {
		// No byte range is satisfiable against an empty object.
		return 0, 0, false, fmt.Errorf("range %q against empty object", h)
	}
	if lo == "" {
		// suffix form: last n bytes
		n, perr := strconv.ParseInt(hi, 10, 64)
		if perr != nil || n <= 0 {
			return 0, 0, false, fmt.Errorf("bad range %q", h)
		}
		if n > size {
			n = size
		}
		return size - n, size, true, nil
	}
	start, perr := strconv.ParseInt(lo, 10, 64)
	if perr != nil || start < 0 {
		return 0, 0, false, fmt.Errorf("bad range %q", h)
	}
	if start >= size {
		return 0, 0, false, fmt.Errorf("range %q starts past size %d", h, size)
	}
	if hi == "" {
		return start, size, true, nil
	}
	last, perr := strconv.ParseInt(hi, 10, 64)
	if perr != nil || last < start {
		return 0, 0, false, fmt.Errorf("bad range %q", h)
	}
	// Clamp before the +1 so a last of MaxInt64 cannot overflow.
	end = size
	if last < size-1 {
		end = last + 1
	}
	return start, end, true, nil
}

// httpGet serves an object body or a directory listing.
func (g *Gateway) httpGet(w http.ResponseWriter, r *http.Request, path string, wantDir bool) {
	fs, err := g.httpFS()
	if err != nil {
		failFS(w, err)
		return
	}
	ts, _, err := g.resolveAsOf(r)
	if err != nil {
		httpFail(w, http.StatusBadRequest, err)
		return
	}
	info, err := fs.StatAsOf(ts, path)
	if err != nil {
		failFS(w, err)
		return
	}
	if info.IsDir || wantDir {
		sw := httpList.Start()
		g.httpList(w, fs, ts, path)
		sw.Stop()
		return
	}
	sw := httpGet.Start()
	defer sw.Stop()

	f, err := fs.OpenAsOf(ts, path)
	if err != nil {
		failFS(w, err)
		return
	}
	defer f.Close()
	if g.role.ReadOnly() {
		// Snapshot open served from the replica's own pool.
		obsReplicaReads.Inc()
	}
	size, err := f.Size()
	if err != nil {
		failFS(w, err)
		return
	}

	off, end, ranged, err := parseRange(r.Header.Get("Range"), size)
	if err != nil {
		obsHTTPErrors.Inc()
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Accept-Ranges", "bytes")
	h.Set("Content-Length", strconv.FormatInt(end-off, 10))
	h.Set("X-As-Of", strconv.FormatUint(uint64(ts), 10))
	h.Set("X-File-Id", strconv.FormatUint(info.FileID, 10))
	h.Set("X-Mtime", strconv.FormatInt(info.MTime, 10))
	status := http.StatusOK
	if ranged {
		obsHTTPRange.Inc()
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, end-1, size))
		status = http.StatusPartialContent
	}
	w.WriteHeader(status)
	g.streamBody(w, f.Ref(), ts, off, end)
}

// streamBody streams [off, end) of the object to w through the chunk pump —
// the same depth-D read-ahead and chunk accounting as the v2 wire
// protocol.
func (g *Gateway) streamBody(w http.ResponseWriter, ref adt.ObjectRef, ts txn.TS, off, end int64) {
	visit := func(o, n int64, fn func(*core.RawExtent) error) error {
		return g.store.VisitRawAsOf(ts, ref, o, n, fn)
	}
	err := g.pumpChunks(g.opts.Chunk, off, end,
		func(o, n int64) (*chunkPiece, error) { return g.dataFetch(visit, o, n) },
		func(p *chunkPiece, last bool) error {
			defer p.release(g)
			n, werr := w.Write(p.frames[0].b[HdrLen:])
			obsHTTPBytesOut.Add(int64(n))
			return werr
		})
	if err != nil {
		// Mid-body: the status line is gone; all we can do is stop.
		obsHTTPErrors.Inc()
	}
}

// listEntry is one row of a bucket listing.
type listEntry struct {
	Name  string `json:"name"`
	Dir   bool   `json:"dir"`
	Size  int64  `json:"size"`
	MTime int64  `json:"mtime"`
	ID    uint64 `json:"fileId"`
}

// httpList serves a JSON directory listing from DIRECTORY + FILESTAT.
// Listing bytes are not LOB bytes and do not count toward bytes_out.
func (g *Gateway) httpList(w http.ResponseWriter, fs *inversion.FS, ts txn.TS, path string) {
	ents, err := fs.ReadDirAsOf(ts, path)
	if err != nil {
		failFS(w, err)
		return
	}
	out := struct {
		Path    string      `json:"path"`
		AsOf    uint64      `json:"asOf"`
		Entries []listEntry `json:"entries"`
	}{Path: path, AsOf: uint64(ts), Entries: make([]listEntry, 0, len(ents))}
	for _, e := range ents {
		le := listEntry{Name: e.Name, Dir: e.IsDir, ID: e.FileID}
		if info, err := fs.StatAsOf(ts, joinHTTP(path, e.Name)); err == nil {
			le.Size = info.Size
			le.MTime = info.MTime
		}
		out.Entries = append(out.Entries, le)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-As-Of", strconv.FormatUint(uint64(ts), 10))
	json.NewEncoder(w).Encode(&out)
}

func joinHTTP(dir, name string) string {
	return strings.TrimSuffix(dir, "/") + "/" + name
}

// httpStat serves HEAD: object metadata, no body.
func (g *Gateway) httpStat(w http.ResponseWriter, r *http.Request, path string) {
	fs, err := g.httpFS()
	if err != nil {
		failFS(w, err)
		return
	}
	ts, _, err := g.resolveAsOf(r)
	if err != nil {
		httpFail(w, http.StatusBadRequest, err)
		return
	}
	info, err := fs.StatAsOf(ts, path)
	if err != nil {
		failFS(w, err)
		return
	}
	h := w.Header()
	h.Set("Accept-Ranges", "bytes")
	h.Set("X-As-Of", strconv.FormatUint(uint64(ts), 10))
	h.Set("X-File-Id", strconv.FormatUint(info.FileID, 10))
	h.Set("X-Mtime", strconv.FormatInt(info.MTime, 10))
	if info.IsDir {
		h.Set("X-Directory", "true")
	} else {
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.FormatInt(info.Size, 10))
	}
	w.WriteHeader(http.StatusOK)
}

// mkdirAll creates every missing directory along path's parents.
func mkdirAll(fs *inversion.FS, tx *txn.Txn, dir string) error {
	parts := strings.Split(strings.Trim(dir, "/"), "/")
	cur := ""
	for _, p := range parts {
		if p == "" {
			continue
		}
		cur += "/" + p
		if err := fs.Mkdir(tx, cur); err != nil && !errors.Is(err, inversion.ErrExist) {
			return err
		}
	}
	return nil
}

// httpPut creates or replaces an object (or creates a directory when the
// path ends in "/"), streaming the body chunk by chunk inside one
// transaction.
func (g *Gateway) httpPut(w http.ResponseWriter, r *http.Request, path string, wantDir bool) {
	if g.role.ReadOnly() {
		httpFail(w, http.StatusForbidden, errors.New("replica is read-only"))
		return
	}
	fs, err := g.httpFS()
	if err != nil {
		failFS(w, err)
		return
	}
	tx := g.store.Pool().Mgr.Begin()
	abort := true
	defer func() {
		if abort && !tx.Done() {
			tx.Abort()
		}
	}()

	if wantDir {
		if err := mkdirAll(fs, tx, path); err != nil {
			failFS(w, err)
			return
		}
		if _, err := tx.Commit(); err != nil {
			failFS(w, err)
			return
		}
		abort = false
		w.WriteHeader(http.StatusCreated)
		return
	}

	dir := path[:strings.LastIndex(path, "/")+1]
	if dir != "/" {
		if err := mkdirAll(fs, tx, dir); err != nil {
			failFS(w, err)
			return
		}
	}
	created := false
	f, err := fs.Open(tx, path)
	switch {
	case err == nil:
		if err := f.Truncate(0); err != nil {
			f.Close()
			failFS(w, err)
			return
		}
	case errors.Is(err, inversion.ErrNotExist):
		created = true
		if f, err = fs.Create(tx, path); err != nil {
			failFS(w, err)
			return
		}
	default:
		failFS(w, err)
		return
	}

	// Stream the body in chunk units — the server never holds more than
	// one chunk of the upload.
	buf := make([]byte, g.opts.Chunk)
	var total int64
	for {
		g.chunkAcquire(len(buf))
		rn, rerr := io.ReadFull(r.Body, buf)
		if rn > 0 {
			if _, werr := f.Write(buf[:rn]); werr != nil {
				g.chunkRelease(len(buf))
				f.Close()
				failFS(w, werr)
				return
			}
			total += int64(rn)
			obsHTTPBytesIn.Add(int64(rn))
		}
		g.chunkRelease(len(buf))
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			f.Close()
			httpFail(w, http.StatusBadRequest, rerr)
			return
		}
	}
	if err := f.Close(); err != nil {
		failFS(w, err)
		return
	}
	ts, err := tx.Commit()
	if err != nil {
		failFS(w, err)
		return
	}
	abort = false
	w.Header().Set("X-Commit-Ts", strconv.FormatUint(uint64(ts), 10))
	w.Header().Set("X-Bytes", strconv.FormatInt(total, 10))
	if created {
		w.WriteHeader(http.StatusCreated)
	} else {
		w.WriteHeader(http.StatusOK)
	}
}

// httpDelete removes an object or an empty directory in one transaction.
func (g *Gateway) httpDelete(w http.ResponseWriter, r *http.Request, path string) {
	if g.role.ReadOnly() {
		httpFail(w, http.StatusForbidden, errors.New("replica is read-only"))
		return
	}
	fs, err := g.httpFS()
	if err != nil {
		failFS(w, err)
		return
	}
	tx := g.store.Pool().Mgr.Begin()
	if err := fs.Remove(tx, strings.TrimSuffix(path, "/")); err != nil {
		tx.Abort()
		failFS(w, err)
		return
	}
	if _, err := tx.Commit(); err != nil {
		failFS(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
