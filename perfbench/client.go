package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// requestTimeout bounds one request, so a stalled server cannot hold a
// run past its time limit.
const requestTimeout = 10 * time.Second

// conn is the closed loop's client: one keep-alive HTTP/1.1 connection,
// driven synchronously. Each request is one write of prepared bytes and
// one read of the status line, headers and Content-Length body, with no
// goroutine hand-offs, so the server rather than the client takes most of
// the two shared CPUs. net/http's client costs 2.5× the client CPU per
// request and cuts http-serve's throughput by 40% (see README.md).
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

// request renders a GET for path.
func request(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
}

// get sends one prepared request and returns the status and the body,
// which is valid until the next call. A transport error closes the
// connection; the next call dials again.
func (c *conn) get(req []byte) (int, []byte, error) {
	status, body, err := c.roundTrip(req)
	if err != nil && c.c != nil {
		c.c.Close()
		c.c = nil
	}
	return status, body, err
}

func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 4096)
	}
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, closing := -1, false
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Connection")) && bytes.EqualFold(value, []byte("close")):
			closing = true
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	if closing {
		c.c.Close()
		c.c = nil
	}
	return status, c.body, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}
