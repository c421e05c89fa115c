/**
 * @file
 * The monitored bfly_serve as a child process, seen from outside:
 * spawn on a private Unix socket, wait for its listening line, sample
 * its /proc counters, SIGTERM it and parse its exit line.
 */

#ifndef BFLY_PERFBENCH_SERVER_PROCESS_HPP
#define BFLY_PERFBENCH_SERVER_PROCESS_HPP

#include <cstdint>
#include <string>

#include <sys/types.h>

namespace perfbench {

/** One reading of the child's /proc/<pid>/stat and /proc/<pid>/status. */
struct ProcSample
{
    bool ok = false;
    double cpuSeconds = 0; ///< utime + stime, all threads
    double rssMb = 0;      ///< VmRSS
    double hwmMb = 0;      ///< VmHWM
    double threads = 0;    ///< Threads
};

/** Counters from bfly_serve's exit line. */
struct ServerTotals
{
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t busySent = 0;
    std::uint64_t partial = 0;
    std::uint64_t shed = 0;
};

class ServerProcess
{
  public:
    ServerProcess() = default;
    /** Kills and reaps a child that stop() did not end. */
    ~ServerProcess();

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** Spawn @p binary with default flags on @p socket_path and wait
     *  until it prints its listening line. */
    bool start(const std::string &binary, const std::string &socket_path,
               std::string &error);

    ProcSample sample() const;

    /** SIGTERM the child, read its output to EOF, reap it, and parse
     *  the exit line into @p totals. */
    bool stop(ServerTotals &totals, std::string &error);

  private:
    /** Append child output to buffered_ until @p needle appears, EOF,
     *  or @p timeout_ms passes. True if the needle was seen; an empty
     *  needle reads to EOF and is seen there. */
    bool readUntil(const std::string &needle, int timeout_ms);
    void reap(bool kill_first);

    pid_t pid_ = -1;
    int out_ = -1;
    std::string socket_;
    std::string buffered_;
};

} // namespace perfbench

#endif // BFLY_PERFBENCH_SERVER_PROCESS_HPP
