package tsu

// RichRandomProgram exposes the rich-program generator to the external
// test package, which drives it through the runtime (package rts imports
// this one, so those tests cannot live in package tsu).
var RichRandomProgram = richRandomProgram
