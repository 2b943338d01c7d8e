//go:build !linux

package main

import "errors"

func pinToOneCPU() (func(), error) {
	return nil, errors.New("pinning to one processor is implemented for Linux only")
}
