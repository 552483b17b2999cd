package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestRESTDropsAStalledHeader: a client that sends half a request header
// and stalls is disconnected once the read timeout passes, without a reply.
func TestRESTDropsAStalledHeader(t *testing.T) {
	const timeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := restServer("", http.NotFoundHandler(), timeout)
	go hs.Serve(ln)
	defer hs.Close()

	// The server's read deadline can start before Dial returns, so the clock
	// starts before Dial: the measured interval then bounds the server's.
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/keys HTTP/1.1\r\nHost: forkbase\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	if elapsed := time.Since(start); n != 0 || !errors.Is(err, io.EOF) || elapsed < timeout {
		t.Fatalf("after %v: read %d bytes, err %v; want the connection closed once %v passed", elapsed, n, err, timeout)
	}
}
