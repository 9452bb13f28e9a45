type t = {
  clauses_built : int;
  total_learned : int;
  resolution_steps : int;
  core_original_ids : int list;
  learned_built_ids : int list;
  core_vars : int;
  peak_mem_words : int;
  peak_live_clauses : int;
  arena_bytes_resident : int;
}

let built_ratio r =
  if r.total_learned = 0 then 1.0
  else float_of_int r.clauses_built /. float_of_int r.total_learned

let pp fmt r =
  Format.fprintf fmt
    "@[<v>clauses built: %d / %d (%.1f%%)@,resolution steps: %d@,core: %d \
     clauses over %d variables@,peak memory: %d words@,peak live clauses: \
     %d (%d arena bytes)@]"
    r.clauses_built r.total_learned
    (100.0 *. built_ratio r)
    r.resolution_steps
    (List.length r.core_original_ids)
    r.core_vars r.peak_mem_words r.peak_live_clauses r.arena_bytes_resident

(* Byte-identical across runs and with telemetry on/off — the identity
   cram test diffs exactly this output. *)
let to_json r =
  let buf = Buffer.create 512 in
  let ids l =
    Buffer.add_char buf '[';
    List.iteri
      (fun i id ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int id))
      l;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "\"clauses_built\":%d,\n\"total_learned\":%d,\n"
       r.clauses_built r.total_learned);
  Buffer.add_string buf
    (Printf.sprintf "\"built_ratio\":%.4f,\n\"resolution_steps\":%d,\n"
       (built_ratio r) r.resolution_steps);
  Buffer.add_string buf "\"core_original_ids\":";
  ids r.core_original_ids;
  Buffer.add_string buf ",\n\"learned_built_ids\":";
  ids r.learned_built_ids;
  Buffer.add_string buf
    (Printf.sprintf ",\n\"core_vars\":%d,\n\"peak_mem_words\":%d,\n"
       r.core_vars r.peak_mem_words);
  Buffer.add_string buf
    (Printf.sprintf "\"peak_live_clauses\":%d,\n\"arena_bytes_resident\":%d\n}"
       r.peak_live_clauses r.arena_bytes_resident);
  Buffer.contents buf
