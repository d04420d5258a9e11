package httpd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// ReadTimeout bounds how long a client may take to send one request,
// body included. A client that declares a body and then stalls would
// otherwise hold a handler goroutine and its read buffer, and on
// napel-serve one of the in-flight slots, for as long as it keeps the
// connection open. net/http clears the read deadline once the body
// reaches EOF, so a slow handler, such as a reload, is not cut short.
// Tests shorten it.
var ReadTimeout = 30 * time.Second

// IdleTimeout closes unused keep-alive connections. It stays well above
// a 10 s benchmark round. A client must drop its own idle connections
// sooner, as http.DefaultTransport does after 90 s, or it may reuse one
// the server is closing, and net/http does not replay a POST it has
// already written.
const IdleTimeout = 2 * time.Minute

// Serve serves h on ln until ctx ends, giving a client 10 s to send its
// headers, ReadTimeout for the whole request and IdleTimeout between
// requests. It then calls onDrain, if it is not nil, closes the listener
// and waits up to drain for the requests in flight to finish.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, onDrain func()) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("httpd: drain incomplete after %s: %w", drain, err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
