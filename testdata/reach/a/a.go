// Package a declares the fixture's exports: some reached from package main,
// some reached only through an interface or a generic instance, and five
// that nothing reaches.
package a

// Shape's Area is called through the interface; Perimeter never is.
type Shape interface {
	Area() int
	Perimeter() int
}

type Square struct{ n int }

func (s Square) Area() int { return s.n * s.n }

func (s Square) Perimeter() int { return 4 * s.n }

func New(n int) Square { return Square{n} }

func Unused() {}

const Limit = 3

var Spare = 1
