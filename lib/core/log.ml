(* Library-wide log source. Enable with e.g.
   [Logs.set_reporter (Logs_fmt.reporter ()); Logs.set_level (Some Logs.Debug)]
   or for the plain reporter, [Logs.set_reporter] of your choice. *)

let src = Logs.Src.create "iq" ~doc:"Improvement Queries core"

module L = (val Logs.src_log src : Logs.LOG)

let debug = L.debug
let info = L.info
