package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestStalledHeaderDisconnected checks that a client which sends half
// a request header and then stalls is disconnected once the header
// timeout passes, instead of holding its connection open.
func TestStalledHeaderDisconnected(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: lpbufd\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	for {
		_, err := conn.Read(buf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("stalled client still connected after 5s")
		}
		if err != nil {
			return // closed by the server
		}
	}
}

// TestServerTimeouts pins the production settings: a header timeout
// and an idle timeout, and no write timeout, which would cut off SSE
// streams and ?wait=1 replies.
func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v; want none", srv.WriteTimeout, srv.ReadTimeout)
	}
}
