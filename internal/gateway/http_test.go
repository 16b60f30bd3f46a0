package gateway_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"postlob/internal/adt"
	"postlob/internal/compress"
	"postlob/internal/gateway"
	"postlob/internal/inversion"
	"postlob/internal/storage"
)

// httpServer wraps a gateway's HTTP frontend in a test server.
func httpServer(t *testing.T, g *gateway.Gateway) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(g.HTTPHandler())
	t.Cleanup(ts.Close)
	return ts
}

func httpDo(t *testing.T, method, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestHTTPPFileBackedGet: a gateway whose file system asks for p-files
// stores its objects as f-chunks, so a GET — a snapshot read — returns
// what the PUT stored instead of a no-time-travel error.
func TestHTTPPFileBackedGet(t *testing.T) {
	_, _, g := startGateway(t, gateway.Options{Chunk: 8 << 10, FS: inversion.Options{Kind: adt.KindPFile}})
	srv := httpServer(t, g)
	payload := compress.GenFrame(71, 50_000, 0.4)
	resp, _ := httpDo(t, http.MethodPut, srv.URL+"/bucket/key", payload, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	resp, body := httpDo(t, http.MethodGet, srv.URL+"/bucket/key", nil, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("GET = %d, %d bytes: %.100s", resp.StatusCode, len(body), body)
	}
}

func TestHTTPObjectLifecycle(t *testing.T) {
	_, _, g := startGateway(t, gateway.Options{Chunk: 8 << 10})
	srv := httpServer(t, g)
	payload := compress.GenFrame(70, 100_000, 0.4)

	// PUT creates (201), parents auto-created.
	resp, _ := httpDo(t, http.MethodPut, srv.URL+"/bucket/dir/key", payload, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT create = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Bytes"); got != strconv.Itoa(len(payload)) {
		t.Fatalf("X-Bytes = %s", got)
	}

	// GET returns every byte.
	resp, body := httpDo(t, http.MethodGet, srv.URL+"/bucket/dir/key", nil, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("GET = %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatal("Accept-Ranges missing")
	}

	// HEAD: metadata, no body.
	resp, body = httpDo(t, http.MethodHead, srv.URL+"/bucket/dir/key", nil, nil)
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("HEAD = %d, %d body bytes", resp.StatusCode, len(body))
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(payload)) {
		t.Fatalf("HEAD Content-Length = %s", got)
	}

	// PUT replaces (200).
	v2 := []byte("replacement")
	resp, _ = httpDo(t, http.MethodPut, srv.URL+"/bucket/dir/key", v2, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT replace = %d", resp.StatusCode)
	}
	_, body = httpDo(t, http.MethodGet, srv.URL+"/bucket/dir/key", nil, nil)
	if !bytes.Equal(body, v2) {
		t.Fatalf("GET after replace = %q", body)
	}

	// Listing.
	resp, body = httpDo(t, http.MethodGet, srv.URL+"/bucket/dir/", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	var listing struct {
		Path    string `json:"path"`
		Entries []struct {
			Name string `json:"name"`
			Dir  bool   `json:"dir"`
			Size int64  `json:"size"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("listing not JSON: %v\n%s", err, body)
	}
	if len(listing.Entries) != 1 || listing.Entries[0].Name != "key" || listing.Entries[0].Size != int64(len(v2)) {
		t.Fatalf("listing = %+v", listing)
	}

	// DELETE of a non-empty directory conflicts.
	resp, _ = httpDo(t, http.MethodDelete, srv.URL+"/bucket/dir", nil, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE non-empty dir = %d", resp.StatusCode)
	}

	// DELETE the object, then the empty directory.
	resp, _ = httpDo(t, http.MethodDelete, srv.URL+"/bucket/dir/key", nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	resp, _ = httpDo(t, http.MethodGet, srv.URL+"/bucket/dir/key", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete = %d", resp.StatusCode)
	}
	resp, _ = httpDo(t, http.MethodDelete, srv.URL+"/bucket/dir", nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE empty dir = %d", resp.StatusCode)
	}
}

// TestHTTPRangeByteIdentity is the acceptance check: every Range GET must
// be byte-identical to an in-process snapshot seek/read of the same file.
func TestHTTPRangeByteIdentity(t *testing.T) {
	_, store, g := startGateway(t, gateway.Options{Chunk: 8 << 10})
	srv := httpServer(t, g)
	payload := compress.GenFrame(71, 200_000, 0.3)
	resp, _ := httpDo(t, http.MethodPut, srv.URL+"/b/obj", payload, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	size := int64(len(payload))
	ts := store.Pool().Mgr.Now()
	fs, err := inversion.OpenReadOnly(store, inversion.Options{SM: storage.Mem})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		hdr      string
		off, end int64
	}{
		{"bytes=0-999", 0, 1000},
		{"bytes=100-199", 100, 200},
		{"bytes=150000-", 150_000, size},
		{"bytes=-500", size - 500, size},
		{fmt.Sprintf("bytes=0-%d", size+5000), 0, size}, // last clamped
		{"bytes=12345-54321", 12_345, 54_322},
	}
	for _, tc := range cases {
		resp, body := httpDo(t, http.MethodGet, srv.URL+"/b/obj", nil, map[string]string{"Range": tc.hdr})
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("%s: status %d", tc.hdr, resp.StatusCode)
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", tc.off, tc.end-1, size)
		if got := resp.Header.Get("Content-Range"); got != wantCR {
			t.Fatalf("%s: Content-Range %q, want %q", tc.hdr, got, wantCR)
		}
		// Oracle: in-process snapshot open + seek + read.
		f, err := fs.OpenAsOf(ts, "/b/obj")
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, tc.end-tc.off)
		if _, err := f.Seek(tc.off, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(f, want); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: body differs from in-process read (%d vs %d bytes)", tc.hdr, len(body), len(want))
		}
	}

	// Unsatisfiable → 416 with the size in Content-Range.
	resp, _ = httpDo(t, http.MethodGet, srv.URL+"/b/obj", nil, map[string]string{"Range": fmt.Sprintf("bytes=%d-", size)})
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("past-end range = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Range"); got != fmt.Sprintf("bytes */%d", size) {
		t.Fatalf("416 Content-Range = %q", got)
	}

	// Multi-range is unsupported: ignored, whole object with 200.
	resp, body := httpDo(t, http.MethodGet, srv.URL+"/b/obj", nil, map[string]string{"Range": "bytes=0-99,200-299"})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("multi-range = %d, %d bytes", resp.StatusCode, len(body))
	}
}

// TestHTTPAsOfSnapshot pins a GET to a pre-overwrite commit timestamp.
func TestHTTPAsOfSnapshot(t *testing.T) {
	_, _, g := startGateway(t, gateway.Options{})
	srv := httpServer(t, g)

	v1 := []byte("first version of the object")
	resp, _ := httpDo(t, http.MethodPut, srv.URL+"/b/k", v1, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT v1 = %d", resp.StatusCode)
	}
	ts1 := resp.Header.Get("X-Commit-Ts")
	if ts1 == "" {
		t.Fatal("no X-Commit-Ts")
	}
	v2 := []byte("second")
	if resp, _ := httpDo(t, http.MethodPut, srv.URL+"/b/k", v2, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT v2 = %d", resp.StatusCode)
	}

	// Latest wins without as-of.
	if _, body := httpDo(t, http.MethodGet, srv.URL+"/b/k", nil, nil); !bytes.Equal(body, v2) {
		t.Fatalf("latest GET = %q", body)
	}
	// Query param, header, and If-Unmodified-Since all pin the snapshot.
	for _, variant := range []struct {
		url string
		hdr map[string]string
	}{
		{srv.URL + "/b/k?asOf=" + ts1, nil},
		{srv.URL + "/b/k", map[string]string{"X-As-Of": ts1}},
		{srv.URL + "/b/k", map[string]string{"If-Unmodified-Since": ts1}},
	} {
		resp, body := httpDo(t, http.MethodGet, variant.url, nil, variant.hdr)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, v1) {
			t.Fatalf("as-of GET %s %v = %d, %q", variant.url, variant.hdr, resp.StatusCode, body)
		}
		if resp.Header.Get("X-As-Of") != ts1 {
			t.Fatalf("X-As-Of echo = %q", resp.Header.Get("X-As-Of"))
		}
	}
	// A bogus as-of is a 400.
	if resp, _ := httpDo(t, http.MethodGet, srv.URL+"/b/k?asOf=banana", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad as-of = %d", resp.StatusCode)
	}
}

// TestHTTPReadOnlyReplica serves GETs through a second, read-only gateway
// over the same store and refuses writes with 403.
func TestHTTPReadOnlyReplica(t *testing.T) {
	_, store, g := startGateway(t, gateway.Options{})
	primary := httpServer(t, g)
	payload := compress.GenFrame(72, 50_000, 0.5)
	if resp, _ := httpDo(t, http.MethodPut, primary.URL+"/b/k", payload, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}

	rg := gateway.New(store, gateway.Options{FS: inversion.Options{SM: storage.Mem}})
	rg.SetRole(role{replica: true})
	replica := httpServer(t, rg)
	resp, body := httpDo(t, http.MethodGet, replica.URL+"/b/k", nil, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("replica GET = %d, %d bytes", resp.StatusCode, len(body))
	}
	resp, body = httpDo(t, http.MethodGet, replica.URL+"/b/k", nil, map[string]string{"Range": "bytes=10-19"})
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, payload[10:20]) {
		t.Fatalf("replica Range GET = %d", resp.StatusCode)
	}
	if resp, _ := httpDo(t, http.MethodPut, replica.URL+"/b/k2", []byte("x"), nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica PUT = %d", resp.StatusCode)
	}
	if resp, _ := httpDo(t, http.MethodDelete, replica.URL+"/b/k", nil, nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica DELETE = %d", resp.StatusCode)
	}
}

// TestHTTPReadOnlyUnbootstrapped: a read-only gateway whose primary never
// initialised the Inversion classes answers 503, not 500.
func TestHTTPReadOnlyUnbootstrapped(t *testing.T) {
	_, store, _ := startGateway(t, gateway.Options{})
	rg := gateway.New(store, gateway.Options{FS: inversion.Options{SM: storage.Mem}})
	rg.SetRole(role{replica: true})
	replica := httpServer(t, rg)
	resp, _ := httpDo(t, http.MethodGet, replica.URL+"/b/k", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unbootstrapped replica GET = %d", resp.StatusCode)
	}
}
