package main

import (
	"fmt"

	"reach/a"
)

func main() {
	var s a.Shape = a.New(a.Limit)
	fmt.Println(s.Area(), a.Box[int]{}.Get())
}
