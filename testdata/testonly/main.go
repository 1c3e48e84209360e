package main

import "testonly/internal/pkg"

func main() { println(pkg.Live()) }
