GO ?= go

.PHONY: build test race verify clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full gate: vet + build + race-enabled tests + a live smoke test of the
# napel-serve HTTP service. See scripts/verify.sh.
verify:
	./scripts/verify.sh

clean:
	$(GO) clean ./...
