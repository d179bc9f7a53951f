(* The host a result was measured on: cores, compiler, the filesystem
   holding the WAL files, and the process's peak resident set. *)

let cores () = Domain.recommended_domain_count ()

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec loop acc =
      match input_line ic with
      | line -> loop (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    loop []

(* Filesystem type of the longest mount point containing [dir]. *)
let filesystem dir =
  let dir =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir
  in
  let within mount =
    mount = "/"
    || dir = mount
    || String.length dir > String.length mount
       && String.sub dir 0 (String.length mount) = mount
       && dir.[String.length mount] = '/'
  in
  List.fold_left
    (fun (best_len, best) line ->
      match String.split_on_char ' ' line with
      | _ :: mount :: fstype :: _ when within mount && String.length mount > best_len ->
        (String.length mount, fstype)
      | _ -> (best_len, best))
    (-1, "unknown") (read_lines "/proc/mounts")
  |> snd

(* Peak resident set of this process in MiB (VmHWM). *)
let peak_rss_mb () =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; rest ] ->
        (match String.split_on_char ' ' (String.trim rest) with
         | kb :: _ -> float_of_string kb /. 1024.
         | [] -> acc)
      | _ -> acc)
    0. (read_lines "/proc/self/status")

