(** Versioned checkpoint files.

    A checkpoint is a small self-describing container around a
    [Marshal] payload:

    {v magic "HBCKPT01" | version | kind | MD5(payload) | payload v}

    The [kind] string encodes everything that must match for a resume
    to be meaningful — tool, subcommand, model identity, exploration
    parameters — so resuming with different flags is rejected with a
    clear error instead of a segfault inside [Marshal.from_string].
    The digest catches truncated or corrupted files.  Writes go
    through a temp file and [Sys.rename] so a signal arriving
    mid-checkpoint never destroys the previous good one. *)

val version : int
(** Bumped whenever a payload type's memory layout changes (2: PA
    states became control points over value arrays), so an older file
    is refused before it is unmarshalled as the wrong type. *)

val save : file:string -> kind:string -> 'a -> unit
(** Atomically (re)write [file].  Raises [Sys_error] on IO failure. *)

val load : file:string -> kind:string -> ('a, string) result
(** Validate magic, version, kind and digest, then unmarshal.  The
    caller must ask for the same ['a] it saved — the [kind] string is
    the guard for that.  Never raises on a malformed file: every
    failure, including a payload that is not a marshalled value, is an
    [Error] message. *)
