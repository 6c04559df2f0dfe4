/**
 * @file
 * Example: exfiltrate the string "ISCA25!" across processes through
 * the PRACLeak activity-based covert channel, then show TPRAC closing
 * the channel.
 *
 *   $ ./build/examples/covert_channel_demo
 *
 * The sender (trojan) and receiver (spy) share only a DRAM channel.
 * Each bit-window the sender either hammers one of its own rows to
 * the Back-Off threshold -- forcing an Alert Back-Off RFM whose
 * 350 ns channel stall the receiver observes -- or stays idle.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "attack/covert.h"

using namespace pracleak;

namespace {

std::vector<bool>
toBits(const std::string &text)
{
    std::vector<bool> bits;
    for (const char c : text)
        for (int b = 7; b >= 0; --b)
            bits.push_back((c >> b) & 1);
    return bits;
}

std::string
fromBits(const std::vector<std::uint32_t> &bits)
{
    std::string text;
    for (std::size_t i = 0; i + 7 < bits.size(); i += 8) {
        char c = 0;
        for (int b = 0; b < 8; ++b)
            c = static_cast<char>((c << 1) | (bits[i + b] & 1));
        text.push_back(c);
    }
    return text;
}

} // namespace

int
main()
{
    const std::string secret = "ISCA25!";
    const std::vector<bool> message = toBits(secret);

    CovertParams params;
    params.nbo = 256;

    std::printf("transmitting %zu bits (\"%s\") over the "
                "activity-based channel...\n",
                message.size(), secret.c_str());
    const CovertResult leak = runActivityCovert(params, message);
    std::printf("  received : \"%s\"\n",
                fromBits(leak.decoded).c_str());
    std::printf("  period   : %.1f us/bit, %.1f Kbps, %.2f%% errors\n",
                leak.periodUs(), leak.bitrateKbps(),
                100.0 * leak.errorRate());

    std::printf("\nsame transmission with the TPRAC defense...\n");
    params.defense = "tprac";
    const CovertResult closed = runActivityCovert(params, message);
    std::printf("  received : \"%s\"\n",
                fromBits(closed.decoded).c_str());
    std::printf("  errors   : %.0f%% (TB-RFMs fire every window, so "
                "the spy reads all-ones)\n",
                100.0 * closed.errorRate());
    return 0;
}
