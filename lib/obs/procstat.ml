(* Process-level stats for telemetry: resident set size from
   /proc/self/statm (0 where procfs is unavailable) and a compact view
   of the GC counters. *)

let page_size = 4096

let rss_bytes () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> 0
          | line -> (
              match String.split_on_char ' ' line with
              | _ :: resident :: _ -> (
                  match int_of_string_opt (String.trim resident) with
                  | Some pages when pages > 0 -> pages * page_size
                  | _ -> 0)
              | _ -> 0))

type mem = {
  gc_minor : int;  (** minor collections so far *)
  gc_major : int;  (** major collections so far *)
  heap_words : int;  (** major-heap size in words *)
  rss : int;  (** resident set size in bytes; 0 if unknown *)
}

let sample () =
  let g = Gc.quick_stat () in
  {
    gc_minor = g.Gc.minor_collections;
    gc_major = g.Gc.major_collections;
    heap_words = g.Gc.heap_words;
    rss = rss_bytes ();
  }

let mb bytes = float_of_int bytes /. (1024. *. 1024.)

(* The fields appended to progress heartbeats and health reports. *)
let mem_fields () =
  let m = sample () in
  [
    ("gc_minor", Dsm.Json.Int m.gc_minor);
    ("gc_major", Dsm.Json.Int m.gc_major);
    ("heap_mb", Dsm.Json.Float (mb (m.heap_words * 8)));
    ("rss_mb", Dsm.Json.Float (mb m.rss));
  ]
