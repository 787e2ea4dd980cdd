(** Library log source, named ["iq"]. All core modules report through
    it; enable it with [Logs.set_level] (or pick it out of
    [Logs.Src.list ()] by name). Messages use the usual [Logs]
    continuation style:
    [Iq.Log.debug (fun m -> m "evaluated %d candidates" n)]. *)

val debug : 'a Logs.log
val info : 'a Logs.log
