package bench

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestConnDo drives Conn against a net/http server: small replies carry
// a Content-Length, large ones arrive chunked, requests keep one
// connection alive, and a connection the server closes is dialed again.
func TestConnDo(t *testing.T) {
	var conns []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns = append(conns, r.RemoteAddr)
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case "/echo":
			w.Write(body)
		case "/big":
			n, _ := strconv.Atoi(string(body))
			w.Write(bytes.Repeat([]byte("x"), n))
		case "/close":
			w.Header().Set("Connection", "close")
			w.Write([]byte("bye"))
		default:
			http.Error(w, r.Method+" "+r.URL.Path, http.StatusTeapot)
		}
	}))
	defer srv.Close()
	c := NewConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.Close()

	do := func(method, path string, body []byte, wantStatus int, want string) {
		t.Helper()
		status, got, err := c.Do(method, path, body)
		if err != nil || status != wantStatus || string(got) != want {
			t.Fatalf("%s %s: status %d err %v body %.40q; want %d %.40q", method, path, status, err, got, wantStatus, want)
		}
	}
	do("POST", "/echo", []byte(`{"a":1}`), 200, `{"a":1}`)
	do("POST", "/echo", []byte{}, 200, "")
	do("POST", "/big", []byte("300000"), 200, strings.Repeat("x", 300000))
	do("GET", "/nope", nil, http.StatusTeapot, "GET /nope\n")
	if len(conns) != 4 || conns[0] != conns[3] {
		t.Fatalf("requests arrived on %v, want one kept-alive connection", conns)
	}
	do("POST", "/close", []byte("x"), 200, "bye")
	do("POST", "/echo", []byte("again"), 200, "again")
	if conns[5] == conns[4] {
		t.Fatalf("request after Connection: close reused %s", conns[4])
	}
}

// TestConnDoError reports a refused dial as an error, not a reply.
func TestConnDoError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()
	if status, _, err := NewConn(addr).Do("POST", "/", []byte("x")); err == nil {
		t.Fatalf("closed server answered %d", status)
	}
}
